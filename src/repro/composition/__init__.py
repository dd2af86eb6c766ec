"""Riot's cell model and composition format (substrates S5, S8).

The paper's *separated hierarchy*: leaf cells (CIF geometry or Sticks
symbolic layout) at the leaves, composition cells — "which consist
only of instances of other cells" — in the interior.  A composition
cell is "described internally by a bounding box, a list of connectors,
and a list of instances"; an instance is "a pointer to the defining
cell with a transformation, replication counts, and replication
spacings".
"""
