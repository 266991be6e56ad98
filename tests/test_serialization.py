"""Canonical encoding: determinism, typing, and rejection of the rest."""

import hashlib
from collections import OrderedDict, namedtuple
from enum import IntEnum
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from repro.chain import Transaction, TxKind
from repro.errors import SerializationError
from repro.persist.codec import canonical_decode
from repro.serialization import canonical_encode


class TestBasicTypes:
    def test_none(self):
        assert canonical_encode(None) == b"N"

    def test_bools_distinct_from_ints(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_int_vs_str_distinct(self):
        assert canonical_encode(1) != canonical_encode("1")

    def test_bytes_vs_str_distinct(self):
        assert canonical_encode(b"ab") != canonical_encode("ab")

    def test_negative_int(self):
        assert canonical_encode(-5) != canonical_encode(5)

    def test_float_roundtrip_stability(self):
        assert canonical_encode(0.1) == canonical_encode(0.1)
        assert canonical_encode(0.1) != canonical_encode(0.2)


class TestContainers:
    def test_dict_order_independence(self):
        a = canonical_encode({"x": 1, "y": [2, 3], "z": {"k": None}})
        b = canonical_encode({"z": {"k": None}, "y": [2, 3], "x": 1})
        assert a == b

    def test_list_order_matters(self):
        assert canonical_encode([1, 2]) != canonical_encode([2, 1])

    def test_tuple_encodes_like_list(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_empty_containers_distinct(self):
        assert canonical_encode([]) != canonical_encode({})

    def test_nested_structure(self):
        value = {"a": [{"b": (1, 2)}, None], "c": b"\x00\xff"}
        assert canonical_encode(value) == canonical_encode(value)

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode({1: "x"})


class TestRejection:
    def test_object_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode(object())

    def test_set_rejected(self):
        # Sets are unordered; silently encoding them would be a trap.
        with pytest.raises(SerializationError):
            canonical_encode({1, 2})

    def test_to_canonical_hook(self):
        class Wraps:
            def to_canonical(self):
                return {"v": 7}

        assert canonical_encode(Wraps()) == canonical_encode({"v": 7})


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestProperties:
    @given(json_like)
    def test_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    def test_dict_insertion_order_irrelevant(self, d):
        items = list(d.items())
        reversed_dict = dict(reversed(items))
        assert canonical_encode(d) == canonical_encode(reversed_dict)

    @given(st.lists(st.integers(), max_size=8),
           st.lists(st.integers(), max_size=8))
    def test_injective_on_int_lists(self, a, b):
        if a != b:
            assert canonical_encode(a) != canonical_encode(b)


# ---------------------------------------------------------------------------
# Golden vectors: the exact bytes every stored hash and signature is
# computed over.  Any encoder change must reproduce them bit for bit.
# ---------------------------------------------------------------------------
GOLDEN = [
    (None, b"N"),
    (True, b"T"),
    (False, b"F"),
    (0, b"i1:0"),
    (1, b"i1:1"),
    (-5, b"i2:-5"),
    (2 ** 70, b"i22:1180591620717411303424"),
    (-(2 ** 64), b"i21:-18446744073709551616"),
    (0.1, b"f3:0.1"),
    (-0.0, b"f4:-0.0"),
    (1e300, b"f6:1e+300"),
    (float("inf"), b"f3:inf"),
    (2.5e-08, b"f7:2.5e-08"),
    ("", b"s0:"),
    ("abc", b"s3:abc"),
    ("a:b", b"s3:a:b"),
    ("h\u00e9llo", b"s6:h\xc3\xa9llo"),
    ("\u6570\u636e", b"s6:\xe6\x95\xb0\xe6\x8d\xae"),
    (b"", b"b0:"),
    (b"\x00\xff", b"b2:\x00\xff"),
    (bytearray(b"ab"), b"b2:ab"),
    ([], b"l0:e"),
    ((), b"l0:e"),
    ({}, b"d0:e"),
    ([1, (2, 3)], b"l2:i1:1l2:i1:2i1:3ee"),
    ({"b": [1, (2, 3)], "a": {"z": None, "y": b"x"}, "": True},
     b"d3:s0:Ts1:ad2:s1:yb1:xs1:zNes1:bl2:i1:1l2:i1:2i1:3eee"),
    ({"\u00e9": 1, "e": 2, "z": [[], {}]},
     b"d3:s1:ei1:2s1:zl2:l0:ed0:ees2:\xc3\xa9i1:1e"),
]


class Level(IntEnum):
    HIGH = 3


Point = namedtuple("Point", "x y")


class _Cached:
    _canonical_cache = b"s1:x"


class _Hooked:
    def to_canonical(self):
        return {"v": (7,)}


class _CachedDict(dict):
    # A Mapping is encoded as a mapping even when it carries a cache.
    _canonical_cache = b"N"


# Subclasses and foreign types: each must encode exactly like its base.
FALLBACK = [
    ("txkind", lambda: TxKind.DATA, b"s4:data"),
    ("intenum", lambda: Level.HIGH, b"i1:3"),
    ("ordereddict", lambda: OrderedDict([("b", 1), ("a", 2)]),
     b"d2:s1:ai1:2s1:bi1:1e"),
    ("mappingproxy", lambda: MappingProxyType({"k": (1,)}),
     b"d1:s1:kl1:i1:1ee"),
    ("namedtuple", lambda: Point(1, "a"), b"l2:i1:1s1:ae"),
    ("canonical_cache", lambda: _Cached(), b"s1:x"),
    ("to_canonical", lambda: _Hooked(), b"d1:s1:vl1:i1:7ee"),
    ("dict_subclass_with_cache", lambda: _CachedDict(a=1), b"d1:s1:ai1:1e"),
    ("nested_fallbacks", lambda: {"p": Point(Level.HIGH, _Cached()),
                                  "m": MappingProxyType({"o": _Hooked()})},
     b"d2:s1:md1:s1:od1:s1:vl1:i1:7eees1:pl2:i1:3s1:xee"),
]


def _golden_tx():
    from repro.crypto.signatures import KeyPair

    pair = KeyPair.generate("golden-signer")
    return Transaction(pair.address, TxKind.DATA,
                       {"key": "k", "value": [1, 2.5, None]},
                       nonce=3, timestamp=7, fee=2).sign_with(pair).seal()


class TestGoldenVectors:
    @pytest.mark.parametrize("value,expected", GOLDEN,
                             ids=[repr(v)[:24] for v, _ in GOLDEN])
    def test_scalar_and_nested_bytes(self, value, expected):
        assert canonical_encode(value) == expected

    @pytest.mark.parametrize("name,make,expected", FALLBACK,
                             ids=[name for name, _, _ in FALLBACK])
    def test_fallback_types_encode_like_their_base(self, name, make,
                                                   expected):
        assert canonical_encode(make()) == expected

    def test_true_is_not_one(self):
        assert canonical_encode([True, 1, False, 0]) == \
            b"l4:Ti1:1Fi1:0e"

    def test_sealed_tx_signing_body(self):
        tx = _golden_tx()
        expected = (
            b"d6:s3:feei1:2s4:kinds4:datas5:noncei1:3s7:payloadd2:s3:key"
            b"s1:ks5:valuel3:i1:1f3:2.5Nees6:senders40:"
            b"1ebc0ebc2582ac1f1a147a5d5e10688c5b1442f4"
            b"s9:timestampi1:7e"
        )
        assert canonical_encode(tx.signing_body()) == expected
        # A sealed tx encodes from its pinned bytes: the same bytes.
        assert canonical_encode(tx) == expected

    def test_encode_block_frame(self):
        from repro.chain.block import Block
        from repro.persist.codec import encode_block

        block = Block(height=1, prev_hash=b"\x11" * 32,
                      transactions=[_golden_tx()], timestamp=5,
                      proposer="p", consensus_meta={"round": 2}, nonce=9)
        frame = encode_block(block)
        assert len(frame) == 469
        assert frame.startswith(b"d8:s14:consensus_metad1:s5:roundi1:2e"
                                b"s6:heighti1:1s11:merkle_rootb32:")
        assert hashlib.sha256(frame).hexdigest() == (
            "52d9f9677a749b143cc2a26eeebf3246"
            "f78cd6538ec302e37221b518fe4f09ef")

    @pytest.mark.parametrize("mapping", [
        {1: "x"},
        {"ok": 1, b"k": 2},
        {"nested": {None: 1}},
        OrderedDict([(1, "x")]),
        MappingProxyType({2.5: "x"}),
        [MappingProxyType({"a": OrderedDict([((1, 2), 0)])})],
    ], ids=["dict", "dict_bytes_key", "nested_dict", "ordereddict",
            "mappingproxy", "nested_fallback"])
    def test_non_str_keys_rejected(self, mapping):
        with pytest.raises(SerializationError):
            canonical_encode(mapping)


def _tuples_to_lists(value):
    if isinstance(value, (list, tuple)):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _tuples_to_lists(v) for k, v in value.items()}
    return value


codec_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestDecodeProperties:
    @given(codec_values)
    def test_decode_inverts_encode(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == _tuples_to_lists(value)
        assert type(decoded) is type(_tuples_to_lists(value))

    @given(codec_values)
    def test_every_proper_prefix_raises(self, value):
        encoded = canonical_encode(value)
        for cut in range(len(encoded)):
            with pytest.raises(SerializationError):
                canonical_decode(encoded[:cut])
