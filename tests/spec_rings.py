"""Hypothesis strategy for small rings from the spec grammar."""

from __future__ import annotations

from hypothesis import strategies as st

from vicbench.rings import build_ring

SPEC_ATOMS = ("zmod(2)", "zmod(3)", "zmod(4)", "zmod(5)", "zmod(8)", "zmod(9)",
              "upper_triangular(zmod(2),2)", "matrix_ring(zmod(2),2)",
              "group_ring(zmod(2),c2)", "group_ring(zmod(2),c3)",
              "group_ring(zmod(3),c2)")


@st.composite
def spec_rings(draw):
    """An atom or a product of two, of at most 64 elements (F2[S3] stands in
    for a larger product)."""
    spec = draw(st.sampled_from(SPEC_ATOMS))
    if draw(st.booleans()):
        spec = f"product({spec},{draw(st.sampled_from(SPEC_ATOMS[:4]))})"
    ring = build_ring(spec)
    if ring.size > 64:
        ring = build_ring("group_ring(zmod(2),s3)")
    return ring
