"""Switch-level simulation of symbolic cells.

The paper's environment section: "Sticks, a symbolic layout format,
is generated by the graphical and textual symbolic layout systems,
and is also used as input to simulation."  This package is that
consumer: an NMOS switch-level simulator that reads the same Sticks
cells Riot composes (and the flattened Sticks Riot writes for
simulation), extracts transistors and nets, and evaluates logic
levels by strength-resolved relaxation.
"""
