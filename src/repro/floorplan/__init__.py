"""The big-floorplan workload: a seeded synthetic chip generator plus
a global batch assembly driver built on the paper's three primitives
(ABUT / river ROUTE / STRETCH).

``gen_floorplan_case`` emits a JSON-able description of a
multi-thousand-instance chip — datapath blocks of two-sided bit
slices, arranged in a grid with routing channels between them, ringed
by bond pads — and ``assemble_floorplan`` drives the typed command API
to place and connect it, choosing abut-vs-stretch-vs-route per edge
through a pluggable :class:`AssemblyStrategy`.
"""
