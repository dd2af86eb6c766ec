"""Design-rule checking over flattened mask geometry.

The paper's Observations section is blunt about why checking matters:
"the mere possibility of missed connections requires checking by
users and has severely limited the usefulness of Riot."  Composition
errors "often go unnoticed until late in the design cycle."  This
package is the checking pass a Riot user ran over the generated CIF
before tape-out: per-layer minimum width and minimum spacing over the
flattened rectangles.
"""
