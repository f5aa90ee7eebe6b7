"""File formats: ring references, generator files, canonical dumps."""

from __future__ import annotations

import json

import pytest

from vicbench.errors import BadShape, InvalidMorphism
from vicbench.jsonio import (
    dump_payload,
    generators_payload,
    load_generators,
    load_ring,
    ovic_from_payload,
    save_ring,
    vic_from_payload,
)
from vicbench.noether import RationalField, parse_field
from vicbench.rings import builtin_ring, zmod
from vicbench.wedderburn import build_aw_embedding


def test_ring_file_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    ring = builtin_ring("F2C2")
    save_ring(path, ring)
    again = load_ring(path)
    assert again.same_tables(ring)
    assert again.labels == ring.labels


def test_morphism_ring_reference_by_hash():
    ring = zmod(4)
    payload = {"ring": ring.content_hash(), "d": 1, "n": 1,
               "f_prime": [[1]], "f_dprime": [[1]]}
    assert vic_from_payload(payload, ring).d == 1
    payload["ring"] = "not-this-ring"
    with pytest.raises(InvalidMorphism):
        vic_from_payload(payload, ring)


def test_generator_file_rational_coeffs(tmp_path):
    emb = build_aw_embedding(builtin_ring("F2"))
    field = RationalField()
    gens = [{
        "degree": 2,
        "terms": [
            {"coeff": "1/2",
             "morphism": {"f_prime": [[1], [0]], "f_dprime": [[1, 0]]}},
            {"coeff": "-1/2",
             "morphism": {"f_prime": [[1], [1]], "f_dprime": [[1, 0]]}},
        ],
    }]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    loaded = load_generators(path, emb, field, d=1)
    assert len(loaded) == 1 and len(loaded[0].terms) == 2
    payload = generators_payload(loaded)
    assert {t["coeff"] for t in payload[0]["terms"]} == {"1/2", "-1/2"}


def test_generator_file_must_be_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    emb = build_aw_embedding(builtin_ring("F2"))
    with pytest.raises(BadShape, match="JSON list"):
        load_generators(path, emb, parse_field("F2"), d=1)


def test_dump_payload_canonical():
    assert dump_payload({"b": 1, "a": 2}) == dump_payload({"a": 2, "b": 1})


def test_every_builtin_roundtrips(tmp_path):
    from vicbench.rings import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        ring = builtin_ring(name)
        path = tmp_path / f"{name}.json"
        save_ring(path, ring)
        assert load_ring(path).same_tables(ring)
