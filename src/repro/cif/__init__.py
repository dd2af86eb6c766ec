"""Caltech Intermediate Form (substrate S2).

CIF 2.0 as specified by Sproull & Lyon in *Introduction to VLSI
Systems* (1980) — the geometrical interchange format all Caltech tools
of the Riot era spoke.  Riot reads CIF leaf cells (pads, PLA output,
Bristle Blocks output) and writes CIF for mask generation.

The paper notes: "A user extension was added to CIF to indicate
connector locations so that Riot's logical connection operations could
be performed on CIF cells."  We adopt the MOSIS-style user commands:

* ``9 name;``                     — names the enclosing symbol;
* ``94 name x y layer width;``    — declares a connector.
"""
