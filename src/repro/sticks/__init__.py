"""Sticks symbolic layout (substrate S3).

The "Sticks Standard" [Trimberger 1980] is the symbolic-layout
interchange format of the Caltech flow: cells are described as pins,
symbolic wires, transistors and contacts on a virtual grid, with no
committed design-rule spacing.  Riot reads Sticks leaf cells, writes
Sticks for simulation, builds its river-route cells as Sticks cells,
and stretches Sticks cells through the REST optimizer.
"""
