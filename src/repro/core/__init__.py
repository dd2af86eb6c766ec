"""Riot's editor core (the paper's contribution, C1).

"Riot has commands for four different tasks: interface to the
environment, creation of instances, connection of instances, and
completion of a cell."

* :mod:`repro.core.editor` — the editor object holding the cell list,
  the cell under edit and the pending-connection list; every command
  of the paper is a method here.
* :mod:`repro.core.pending` — the pending-connection list shown on
  screen constantly.
* :mod:`repro.core.abut`, :mod:`repro.core.river`,
  :mod:`repro.core.stretch_op` — the three connection primitives.
* :mod:`repro.core.bringout` — routing connectors out to the cell
  boundary when finishing a cell.
* :mod:`repro.core.commands` — the graphical command interface
  (pointing at menus), :mod:`repro.core.textual` — the textual one.
* :mod:`repro.core.replay` — the REPLAY journal.
* :mod:`repro.core.convert` — composition to CIF (masks) and to
  Sticks (simulation).
"""
