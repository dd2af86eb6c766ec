"""The compiled codec decodes exactly as the reflective one it replaced.

Every wire type's golden sample, and a seeded family of mutations of
it, goes through both :func:`repro.api.codec.from_jsonable` and the
oracle in :mod:`tests.api.reflective_codec`.  The two must agree on
every input: the same canonical JSON of the decoded value (so ``3``
against ``3.0`` is a difference), or the same :class:`BadRequest`
message.  The mutations are what a strict decoder exists to catch:

* each field swapped for every JSON kind (so ``true`` where an int
  is expected, ``3`` where a float is expected);
* each array one element too long and one too short;
* an unknown field, and each field missing;
* the same mutations inside nested records and arrays of records.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api import wire
from repro.api.codec import canonical_json, from_jsonable, to_jsonable
from repro.api.errors import BadRequest

from . import reflective_codec
from .test_wire import WIRE_TYPES, sample_instance

TYPES = WIRE_TYPES + [
    ("envelope.request", wire.RequestEnvelope),
    ("envelope.response", wire.ResponseEnvelope),
]
SEEDS = (0, 1, 2)


def json_kinds(rng: random.Random) -> list:
    """One value of every JSON kind, the numbers and strings seeded."""
    return [
        None,
        True,
        False,
        rng.randint(-50, 50),
        rng.randint(-50, 50) + 0.5,
        f"v{rng.randint(0, 99)}",
        [],
        [rng.randint(0, 9)],
        {},
        {"k": rng.randint(0, 9)},
    ]


def mutations(data: dict, rng: random.Random):
    """(label, mutated copy) pairs of a sample record, nested ones
    included."""
    yield "unknown field", {**data, "zz_not_a_field": 1}
    for key, value in data.items():
        rest = {k: v for k, v in data.items() if k != key}
        yield f"{key} missing", rest
        for kind in json_kinds(rng):
            yield f"{key}={kind!r}", {**data, key: kind}
        if isinstance(value, list):
            if value:
                yield f"{key} one short", {**data, key: value[:-1]}
            longer = value + [value[-1] if value else rng.randint(0, 9)]
            yield f"{key} one long", {**data, key: longer}
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    for label, inner in mutations(item, rng):
                        items = list(value)
                        items[i] = inner
                        yield f"{key}[{i}].{label}", {**data, key: items}
        if isinstance(value, dict):
            for label, inner in mutations(value, rng):
                yield f"{key}.{label}", {**data, key: inner}


def outcome(decode, cls, data):
    try:
        return "ok", canonical_json(decode(cls, data))
    except BadRequest as exc:
        return "error", str(exc)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "cls", [c for _, c in TYPES], ids=[label for label, _ in TYPES]
)
def test_compiled_codec_matches_the_reflective_oracle(cls, seed):
    rng = random.Random(seed)
    sample = json.loads(json.dumps(to_jsonable(sample_instance(cls))))
    cases = [("sample", sample), *mutations(sample, rng)]
    for label, data in cases:
        expected = outcome(reflective_codec.from_jsonable, cls, data)
        assert outcome(from_jsonable, cls, data) == expected, label


def test_mutations_reach_the_checks_that_matter():
    # The family above must contain a bool where an int is expected and
    # an int where a float is expected; both decoders agreeing on them
    # is what pins those two rules.
    from repro.api.types import FloorplanBuildResult

    sample = to_jsonable(sample_instance(FloorplanBuildResult))
    labels = {label for label, _ in mutations(sample, random.Random(0))}
    assert "seed=True" in labels
    assert any(label.startswith("overflow_rate=") for label in labels)
    decoded = from_jsonable(FloorplanBuildResult, {**sample, "overflow_rate": 3})
    assert canonical_json(decoded) == canonical_json(
        reflective_codec.from_jsonable(
            FloorplanBuildResult, {**sample, "overflow_rate": 3}
        )
    )
    assert '"overflow_rate":3.0' in canonical_json(decoded)
