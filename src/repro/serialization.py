"""Canonical serialization for hashing, signing and storage.

Blockchain integrity rests on every node hashing *exactly* the same bytes
for the same logical value.  Python's ``repr``/``str`` are not stable enough
(dict ordering, float formatting), so this module defines a small canonical
encoding:

* deterministic — independent of insertion order and interning,
* typed — ``1`` and ``"1"`` and ``True`` encode differently,
* closed — only JSON-ish types plus ``bytes`` are accepted; anything else
  raises :class:`~repro.errors.SerializationError` rather than silently
  producing an unstable encoding.

The encoding is a type-tagged, length-prefixed byte string, similar in
spirit to bencoding / RFC 8785 (JSON Canonicalization Scheme) but simpler
because we control both producer and consumer.  This module owns both
directions: :func:`canonical_encode` and its exact inverse
:func:`canonical_decode`.  The same bytes are the durable segment logs'
frame bodies (:mod:`repro.persist.codec`) and the gateway's and exec
pool's wire format, and :mod:`repro.sync.codec` scans raw block frames
with :func:`decode_at` / :func:`read_length`.

Both directions dispatch on the exact type (the encoder) or the tag byte
as an integer (the decoder) — the common values never pay for an
``isinstance`` check against the ``typing`` ABCs.  Subclasses and
opted-in objects take :func:`_encode_fallback`, the general
``isinstance`` chain, and encode exactly like their base type.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from .errors import SerializationError


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Accepted types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, and (nested) sequences (``list``/``tuple``) and mappings
    with string keys.  Mappings are encoded with keys sorted
    lexicographically, so two dicts with the same items always encode
    identically.

    >>> canonical_encode({"b": 1, "a": 2}) == canonical_encode({"a": 2, "b": 1})
    True
    >>> canonical_encode(1) == canonical_encode("1")
    False
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def canonical_hex(value: Any) -> str:
    """Hex rendering of the canonical encoding (useful in test output)."""
    return canonical_encode(value).hex()


# ---------------------------------------------------------------------------
# Encoder: exact-type dispatch table, isinstance chain as the fallback
# ---------------------------------------------------------------------------
def _encode_into(value: Any, out: bytearray) -> None:
    _ENCODERS.get(type(value), _encode_fallback)(value, out)


def _encode_none(value: None, out: bytearray) -> None:
    out += b"N"


def _encode_bool(value: bool, out: bytearray) -> None:
    out += b"T" if value else b"F"


def _encode_int(value: int, out: bytearray) -> None:
    body = str(value).encode("ascii")
    out += b"i%d:" % len(body)
    out += body


def _encode_float(value: float, out: bytearray) -> None:
    # repr() of a float is the shortest string that round-trips in
    # CPython (PEP 3101 era guarantee), which makes it canonical for
    # our single-implementation purposes.
    body = repr(value).encode("ascii")
    out += b"f%d:" % len(body)
    out += body


def _encode_str(value: str, out: bytearray) -> None:
    body = value.encode("utf-8")
    out += b"s%d:" % len(body)
    out += body


def _encode_bytes(value: bytes | bytearray, out: bytearray) -> None:
    out += b"b%d:" % len(value)
    out += value


def _sorted_keys(value: Mapping) -> list:
    keys = []
    for key in value:
        if not isinstance(key, str):
            raise SerializationError(
                f"mapping keys must be str, got {type(key).__name__}"
            )
        keys.append(key)
    keys.sort()
    return keys


def _encode_dict(value: Mapping, out: bytearray) -> None:
    keys = _sorted_keys(value)
    out += b"d%d:" % len(keys)
    encoders = _ENCODERS
    for key in keys:
        body = key.encode("utf-8")
        out += b"s%d:" % len(body)
        out += body
        item = value[key]
        encoders.get(type(item), _encode_fallback)(item, out)
    out += b"e"


def _encode_list(value: Sequence, out: bytearray) -> None:
    out += b"l%d:" % len(value)
    encoders = _ENCODERS
    for item in value:
        encoders.get(type(item), _encode_fallback)(item, out)
    out += b"e"


def _encode_fallback(value: Any, out: bytearray) -> None:
    # bool must be tested before int (bool is an int subclass).
    if value is None:
        _encode_none(value, out)
    elif isinstance(value, bool):
        _encode_bool(value, out)
    elif isinstance(value, int):
        _encode_int(value, out)
    elif isinstance(value, float):
        _encode_float(value, out)
    elif isinstance(value, str):
        _encode_str(value, out)
    elif isinstance(value, (bytes, bytearray)):
        _encode_bytes(value, out)
    elif isinstance(value, Mapping):
        _encode_dict(value, out)
    elif isinstance(value, Sequence):
        _encode_list(value, out)
    else:
        # Sealed objects may carry their canonical bytes, precomputed once
        # at seal time (identity-keyed encode cache: the bytes live on the
        # object itself, so cache lifetime equals object lifetime and two
        # equal-but-distinct objects never alias).  Only immutable (sealed)
        # objects may set this — see Transaction.seal().
        cached = getattr(value, "_canonical_cache", None)
        if type(cached) is bytes:
            out += cached
            return
        # Objects may opt in by providing a to_canonical() mapping.
        to_canonical = getattr(value, "to_canonical", None)
        if callable(to_canonical):
            _encode_into(to_canonical(), out)
            return
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_list,
}


# ---------------------------------------------------------------------------
# Decoder: the exact inverse
# ---------------------------------------------------------------------------
def canonical_decode(data: bytes) -> Any:
    """Decode canonical bytes back into the value that produced them.

    Exact inverse of :func:`canonical_encode` for every value that
    function accepts (sequences come back as lists, mappings as dicts).
    Raises :class:`SerializationError` on trailing bytes, truncation, or
    an unknown tag — corruption never decodes.
    """
    value, end = decode_at(data, 0)
    if end != len(data):
        raise SerializationError(
            f"trailing bytes after canonical value ({len(data) - end})"
        )
    return value


def read_length(data: bytes, pos: int) -> tuple[int, int]:
    """Parse the ``<digits>:`` length prefix starting at ``pos``;
    returns ``(length, position after the colon)``."""
    colon = data.find(b":", pos)
    if colon < 0:
        raise SerializationError("truncated length prefix")
    digits = data[pos:colon]
    if not digits.isdigit():
        raise SerializationError(f"bad length prefix {digits!r}")
    return int(digits), colon + 1


# Tag bytes as the integers ``data[pos]`` yields.
_N, _T, _F = b"N"[0], b"T"[0], b"F"[0]
_I, _FL, _S, _B = b"i"[0], b"f"[0], b"s"[0], b"b"[0]
_D, _L = b"d"[0], b"l"[0]


def decode_at(data: bytes, pos: int) -> tuple[Any, int]:
    """Decode the one value that starts at ``pos``; returns ``(value,
    position after it)``."""
    try:
        tag = data[pos]
    except IndexError:
        raise SerializationError("truncated canonical value") from None
    pos += 1
    if tag == _S or tag == _I or tag == _B or tag == _FL:
        # read_length, inlined: scalars are most of the values.
        colon = data.find(b":", pos)
        if colon < 0:
            raise SerializationError("truncated length prefix")
        digits = data[pos:colon]
        if not digits.isdigit():
            raise SerializationError(f"bad length prefix {digits!r}")
        pos = colon + 1
        end = pos + int(digits)
        if end > len(data):
            raise SerializationError("truncated scalar body")
        if tag == _S:
            return data[pos:end].decode("utf-8"), end
        if tag == _I:
            return int(data[pos:end]), end
        if tag == _B:
            return bytes(data[pos:end]), end
        return float(data[pos:end]), end
    if tag == _D:
        count, pos = read_length(data, pos)
        out: dict[str, Any] = {}
        for _ in range(count):
            key, pos = decode_at(data, pos)
            if type(key) is not str:
                raise SerializationError("mapping key must decode to str")
            out[key], pos = decode_at(data, pos)
        if not data.startswith(b"e", pos):
            raise SerializationError("unterminated mapping")
        return out, pos + 1
    if tag == _L:
        count, pos = read_length(data, pos)
        items = []
        for _ in range(count):
            item, pos = decode_at(data, pos)
            items.append(item)
        if not data.startswith(b"e", pos):
            raise SerializationError("unterminated sequence")
        return items, pos + 1
    if tag == _N:
        return None, pos
    if tag == _T:
        return True, pos
    if tag == _F:
        return False, pos
    raise SerializationError(f"unknown canonical tag {bytes([tag])!r}")
