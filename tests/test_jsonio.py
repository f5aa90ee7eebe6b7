"""File formats: ring references, generator files, canonical dumps."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st
from spec_rings import spec_rings

from vicbench.errors import BadShape, InvalidMorphism
from vicbench.jsonio import (
    dump_payload,
    generators_payload,
    load_generators,
    load_ring,
    morphism_payload,
    ovic_from_payload,
    ring_from_payload,
    save_ring,
    vic_from_payload,
)
from vicbench.noether import (
    RationalField,
    closed_form_counts,
    enumerate_ovic,
    enumerate_vic,
    parse_field,
)
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


@st.composite
def ring_and_morphisms(draw):
    """A spec-grammar ring of at most 64 elements, a stratum d -> n (n <= 2)
    of at most 5000 split pairs, and indices of a few of its members."""
    ring = draw(spec_rings())
    emb = build_aw_embedding(ring)
    d, n = draw(st.sampled_from([(d, n) for d, n in ((0, 1), (1, 1), (1, 2), (2, 2))
                                 if closed_form_counts(emb, d, n)[1] <= 5000]))
    picks = draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
    return ring, d, n, picks


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ring_and_morphisms())
def test_payloads_roundtrip_byte_identically(case):
    """Ring, VIC and OVIC payloads survive dump -> parse -> build -> dump
    unchanged, byte for byte.  40 fixed examples, about 1 s on a 2-core x86
    container."""
    ring, d, n, picks = case
    text = dump_payload(ring.to_payload())
    again = ring_from_payload(json.loads(text))
    assert again.same_tables(ring)
    assert dump_payload(again.to_payload()) == text
    emb, emb_again = build_aw_embedding(ring), build_aw_embedding(again)
    for members, load, target in ((enumerate_vic(emb, d, n), vic_from_payload, again),
                                  (enumerate_ovic(emb, d, n), ovic_from_payload, emb_again)):
        for i in picks:
            f = members[i % len(members)]
            text = dump_payload(morphism_payload(f))
            g = load(json.loads(text), target)
            assert type(g) is type(f)
            assert (g.f_prime.entries, g.f_dprime.entries) == (f.f_prime.entries,
                                                                f.f_dprime.entries)
            assert dump_payload(morphism_payload(g)) == text
