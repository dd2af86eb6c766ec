"""Geometry kernel (substrate S1).

The paper's Riot was built on a shared SIMULA "low-level objects
package" of roughly 500 lines supplying points, boxes and transforms.
This package is our equivalent: integer Manhattan geometry in
centimicrons, the eight-element orientation group used by CIF and by
Riot's instance transforms, wire paths, polygons and the layer /
technology registry.
"""
