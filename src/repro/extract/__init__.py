"""Mask-level connectivity extraction.

Riot's connections are positional; once the mask CIF is generated,
the only ground truth is the geometry itself.  This package extracts
electrical continuity from flattened mask shapes — the verification a
Riot user performed (or wished they could) before trusting a
composition: do the pads actually reach the cells they were routed
to?
"""
