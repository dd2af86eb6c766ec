"""Property-based differential testing for the Riot reproduction.

Riot's pitch is *guaranteed-correct* connection primitives: abutment,
river routing and REST stretching hold positional invariants by
construction.  This package checks those guarantees against generated
scenarios instead of hand-picked examples:

* :mod:`~repro.proptest.prng` — an explicit, portable seeded PRNG so
  every run is reproducible from its seed alone;
* :mod:`~repro.proptest.gen` — generators for random Sticks leaf
  cells, river connector vectors, technologies, abut/stretch setups
  and editor command sequences, all expressed as plain-JSON cases;
* :mod:`~repro.proptest.oracles` — the paper's correctness claims as
  checkable invariants over those cases;
* :mod:`~repro.proptest.shrink` — greedy minimisation of failing
  cases down to small reproducers;
* :mod:`~repro.proptest.runner` — the ``python -m repro fuzz`` entry
  point: corpus replay, case budgets, deterministic JSON summaries.

Everything is dependency-free (stdlib only), like the rest of the
reproduction.
"""
