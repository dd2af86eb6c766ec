"""REST-style leaf cell optimizer (substrate S4).

Riot's stretch connection passes a Sticks cell "through the Stick
optimizer in REST [Mosteller 1981], which moves the connectors to the
constrained locations".  REST itself is a Caltech master's-thesis
system we cannot run; this package is the standard formulation of the
same engine: one-dimensional constraint-graph compaction.

* :mod:`repro.rest.graph` — difference-constraint graph with a
  longest-path (Bellman-Ford) solver and positive-cycle infeasibility
  detection.
* :mod:`repro.rest.spacing` — design-rule separation requirements
  between symbolic columns.
* :mod:`repro.rest.compactor` — per-axis compaction of Sticks cells,
  with optional pinned connector positions.
* :mod:`repro.rest.stretch` — the stretch entry point Riot calls.
"""
