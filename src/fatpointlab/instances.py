"""JSON instance files.

Two flavors: "scheme" (a fat point scheme) and "vectors" (a plain vector
configuration, for partition experiments whose elements may be parallel
and therefore cannot be distinct projective points).  All numbers are
serialized as strings so exact rationals survive the round trip; reading
takes strings and integers, and refuses JSON floats and booleans.
"""

from __future__ import annotations

import json

from .exact import ExactMatrix, ScalarField
from .matroid import VectorMatroid


class InstanceError(ValueError):
    pass


def field_from_descriptor(desc):
    if desc == "rational":
        return ScalarField.rational()
    if isinstance(desc, str) and desc.startswith("prime:"):
        try:
            p = int(desc.split(":", 1)[1])
        except ValueError:
            raise InstanceError("bad field descriptor: %r" % (desc,))
        try:
            return ScalarField.prime(p)
        except ValueError as exc:
            raise InstanceError(str(exc))
    raise InstanceError("bad field descriptor: %r" % (desc,))


def field_descriptor(field):
    return "rational" if field.is_rational else "prime:%d" % field.p


def scheme_to_dict(x, seed=None, generator=None):
    out = {
        "kind": "scheme",
        "field": field_descriptor(x.field),
        "ambient_dim": x.n,
        "points": [
            {"coords": [str(c) for c in coords], "mult": mult}
            for coords, mult in x.points
        ],
    }
    if seed is not None:
        out["seed"] = seed
    if generator is not None:
        out["generator"] = generator
    return out


def _listed(value, what):
    """``value`` if it is a JSON list.  A string is iterable too, and would
    otherwise be read character by character."""
    if not isinstance(value, list):
        raise InstanceError("%s must be a list, got %r" % (what, value))
    return value


def _number(value, what):
    """``value`` if it is a JSON string or integer.  A JSON float is rounded
    in binary (``1e400`` reads as infinity) and a boolean is a Python int,
    so both would be coerced without a word."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InstanceError("%s must be an integer or a string, got %r" % (what, value))
    return value


def _coords(field, values, owner):
    return tuple(field.elem(_number(c, "coordinate %d of %s" % (j, owner)))
                 for j, c in enumerate(values))


def scheme_from_dict(data):
    from .schemes import FatPointScheme

    try:
        field = field_from_descriptor(data["field"])
        n = int(_number(data["ambient_dim"], "ambient_dim"))
        points = [
            (_coords(field, _listed(entry["coords"], "coords of point %d" % i), "point %d" % i),
             int(_number(entry["mult"], "mult of point %d" % i)))
            for i, entry in enumerate(_listed(data["points"], "points"))
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InstanceError("malformed scheme instance: %s" % exc)
    try:
        return FatPointScheme(field, n, points)
    except ValueError as exc:
        raise InstanceError(str(exc))


def vectors_to_dict(field, vectors, seed=None, generator=None, **extras):
    out = {
        "kind": "vectors",
        "field": field_descriptor(field),
        "dim": len(vectors[0]),
        "vectors": [[str(c) for c in v] for v in vectors],
    }
    if seed is not None:
        out["seed"] = seed
    if generator is not None:
        out["generator"] = generator
    out.update(extras)
    return out


def vector_matroid_from_dict(data):
    try:
        field = field_from_descriptor(data["field"])
        vectors = [_coords(field, _listed(v, "vector %d" % i), "vector %d" % i)
                   for i, v in enumerate(_listed(data["vectors"], "vectors"))]
        if not vectors:
            raise InstanceError("empty vector list")
        matrix = ExactMatrix.from_columns(field, vectors)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InstanceError("malformed vector instance: %s" % exc)
    return VectorMatroid(matrix)


def load_instance(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError("cannot read instance file: %s" % exc)
    if not isinstance(data, dict) or "kind" not in data:
        raise InstanceError("instance file must be an object with a 'kind' field")
    return data


def canonical_json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
