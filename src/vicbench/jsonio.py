"""JSON file formats: rings, morphisms, generator sets, reports.

Everything is plain JSON; payloads are dumped with sorted keys so identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import BadShape, InvalidMorphism, UsageError
from .rings import FiniteRing, RMatrix

if TYPE_CHECKING:
    from .noether import ModuleElement
    from .ovic import OvicMorphism, VicMorphism
    from .wedderburn import AWEmbedding


def dump_payload(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write an output file; an unwritable target is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def write_payload(path, payload: dict) -> None:
    write_text(path, dump_payload(payload))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json(path):
    """Parsed contents of an input file; unreadable or non-JSON files raise."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise BadShape(f"{path} is not valid JSON: {exc}") from None


def load_ring(path) -> FiniteRing:
    return ring_from_payload(read_json(path))


def ring_from_payload(payload) -> FiniteRing:
    """Check a ring payload's keys and types, then build and validate the
    ring; the size cap, table shapes and ranges are the ring's own checks."""
    if not isinstance(payload, dict):
        raise BadShape("ring payload must be a JSON object")
    missing = [k for k in ("size", "zero", "one", "add", "mul") if k not in payload]
    if missing:
        raise BadShape(f"ring payload lacks {', '.join(missing)}")
    if not _is_int(payload["size"]) or payload["size"] <= 0:
        raise BadShape(f"size must be a positive integer, got {payload['size']!r}")
    for key in ("zero", "one"):
        if not _is_int(payload[key]):
            raise BadShape(f"{key} must be an integer, got {payload[key]!r}")
    for key in ("add", "mul"):
        table = payload[key]
        if not isinstance(table, list) or any(
                not isinstance(row, list) or not all(_is_int(v) for v in row)
                for row in table):
            raise BadShape(f"{key} must be a table: a list of rows of integers")
    if not isinstance(payload.get("name", ""), str):
        raise BadShape("name must be a string")
    if not isinstance(payload.get("labels", []), list):
        raise BadShape("labels must be a list")
    return FiniteRing.from_payload(payload)


def save_ring(path, ring: FiniteRing) -> None:
    write_payload(path, ring.to_payload())


def _check_ring_reference(ref, ring: FiniteRing) -> None:
    if ref is None:
        return
    if ref != ring.name and ref != ring.content_hash():
        raise InvalidMorphism(
            f"morphism file references ring {ref!r}, got {ring.name!r}"
        )


def load_vic_morphism(path, ring: FiniteRing) -> VicMorphism:
    return vic_from_payload(read_json(path), ring)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _matrix_field(payload: dict, key: str, rows: int, cols: int,
                  ring: FiniteRing) -> RMatrix:
    value = payload[key]
    if (not isinstance(value, list) or len(value) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in value)):
        raise InvalidMorphism(f"{key} must be a {rows}x{cols} matrix: "
                              f"a list of {rows} row(s) of {cols} entries each")
    entries = [v for row in value for v in row]
    for v in entries:
        if not _is_int(v) or not 0 <= v < ring.size:
            raise InvalidMorphism(f"{key} entry {v!r} is not an element of "
                                  f"{ring.name} (0..{ring.size - 1})")
    return RMatrix(ring, rows, cols, entries)


def vic_from_payload(payload: dict, ring: FiniteRing) -> VicMorphism:
    """Validate a morphism payload against ``ring`` and build the morphism."""
    from .ovic import VicMorphism

    if not isinstance(payload, dict):
        raise InvalidMorphism("morphism payload must be a JSON object")
    missing = [k for k in ("d", "n", "f_prime", "f_dprime") if k not in payload]
    if missing:
        raise InvalidMorphism(f"morphism payload lacks {', '.join(missing)}")
    _check_ring_reference(payload.get("ring"), ring)
    d, n = payload["d"], payload["n"]
    for key, v in (("d", d), ("n", n)):
        if not _is_int(v) or v < 0:
            raise InvalidMorphism(f"{key} must be a non-negative integer, got {v!r}")
    f_prime = _matrix_field(payload, "f_prime", n, d, ring)
    f_dprime = _matrix_field(payload, "f_dprime", d, n, ring)
    return VicMorphism(f_prime, f_dprime)


def ovic_from_payload(payload: dict, emb: AWEmbedding) -> OvicMorphism:
    from .ovic import OvicMorphism

    vic = vic_from_payload(payload, emb.ring)
    return OvicMorphism(vic.f_prime, vic.f_dprime, emb)


def morphism_payload(f: VicMorphism) -> dict:
    return f.to_payload()


def load_generators(path, emb: AWEmbedding, field, d: Optional[int] = None
                    ) -> list[ModuleElement]:
    """Generator file: [{"degree": n, "terms": [{"coeff": c, "morphism": {...}}]}].

    Terms on one morphism are summed; a sum that ``str`` could not write
    back (Python's int -> str digit limit) is BadShape."""
    from .noether import ModuleElement, check_writable

    payload = read_json(path)
    if not isinstance(payload, list):
        raise BadShape("generator file must be a JSON list")
    out = []
    for pos, item in enumerate(payload):
        where = f"generator {pos}"
        if not isinstance(item, dict):
            raise BadShape(f"{where} must be a JSON object")
        missing = [k for k in ("degree", "terms") if k not in item]
        if missing:
            raise BadShape(f"{where} lacks {', '.join(missing)}")
        degree = item["degree"]
        if not _is_int(degree) or degree < 0:
            raise BadShape(f"{where}: degree must be a non-negative integer, "
                           f"got {degree!r}")
        if not isinstance(item["terms"], list):
            raise BadShape(f"{where}: terms must be a list")
        terms = {}
        for t, term in enumerate(item["terms"]):
            if not isinstance(term, dict) or not isinstance(term.get("morphism"), dict):
                raise BadShape(f"{where}, term {t}: needs a morphism object")
            morph_payload = dict(term["morphism"])
            morph_payload.setdefault("d", d)
            morph_payload.setdefault("n", degree)
            f = ovic_from_payload(morph_payload, emb)
            if f.n != degree:
                raise InvalidMorphism(
                    f"term of rank {f.n} inside degree-{degree} generator"
                )
            try:
                coeff = field.parse(term.get("coeff", 1))
            except (ValueError, ZeroDivisionError):
                raise BadShape(f"{where}, term {t}: coeff {term['coeff']!r} is not "
                               f"an element of {field.name}") from None
            if coeff == field.zero:
                continue
            if f in terms:
                try:
                    coeff = check_writable(field.add(terms[f], coeff))
                except ValueError:
                    raise BadShape(f"{where}, term {t}: the coefficients of its morphism "
                                   f"sum past Python's int -> str digit limit") from None
            terms[f] = coeff
        src_d = next(iter(terms)).d if terms else (d if d is not None else 0)
        out.append(ModuleElement(src_d, degree, field, terms))
    return out


def generators_payload(gens: Sequence[ModuleElement]) -> list:
    out = []
    for g in gens:
        out.append({
            "degree": g.degree,
            "terms": [
                {"coeff": g.field.format(c), "morphism": morphism_payload(f)}
                for f, c in sorted(g.terms.items(), key=lambda t: t[0].order_key)
            ],
        })
    return out
