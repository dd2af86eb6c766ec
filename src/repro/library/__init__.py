"""The leaf-cell stock (L1) for the paper's worked example.

Figure 8 of the paper: "The input and output pads were taken from a
library of CIF cells.  The shift register cell, NAND and OR gates were
laid out in REST, and are defined as symbolic layout in Sticks.
Therefore, the pads cannot be stretched by Riot and all connections to
them will have to be made by routing, but connections to the other
cells can be made by stretching."

This package authors those cells the same way: pads as CIF *text*
(loaded through the CIF reader), logic as Sticks *text* (loaded
through the Sticks reader), plus the "pre-defined pipe fittings [that]
aid complex routes for power, ground and clock lines".
"""
