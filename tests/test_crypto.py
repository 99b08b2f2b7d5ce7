import hashlib
import hmac
from random import Random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from quicmq import crypto
from quicmq.crypto import (
    CryptoError,
    aead_open,
    aead_seal,
    dh_keypair,
    dh_shared,
    extract_expand,
    get_iv,
    kg,
    sign,
    split_keys,
    ver,
)

# ---------------------------------------------------------------------------
# Signature scheme
# ---------------------------------------------------------------------------


def test_sign_verify_roundtrip_many():
    rng = Random(7)
    pair = kg(rng)
    for _ in range(100):
        m = rng.randbytes(rng.randrange(0, 200))
        assert ver(pair.pk, m, sign(pair.sk, m))


def test_verify_rejects_modified_message():
    pair = kg(Random(1))
    sigma = sign(pair.sk, b"x")
    assert ver(pair.pk, b"x", sigma)
    assert not ver(pair.pk, b"x\x00", sigma)


def test_verify_rejects_unrelated_public_key():
    pair = kg(Random(2))
    other = kg(Random(3))
    sigma = sign(pair.sk, b"hello")
    assert not ver(other.pk, b"hello", sigma)


def test_verify_never_raises_on_garbage():
    pair = kg(Random(4))
    assert not ver(pair.pk, b"m", b"")
    assert not ver(pair.pk, b"m", b"\xff" * 70)
    assert not ver(b"not a key", b"m", sign(pair.sk, b"m"))


def test_verify_under_a_cached_key_still_checks_every_call():
    # Only verified triples are kept. A malformed point or a wrong signature
    # raises and is never kept, so every call that does not repeat a
    # verified triple is checked, before and after a good verify has put
    # the key's triple in the cache.
    crypto._verify.cache_clear()
    pair = kg(Random(5))
    sigma = sign(pair.sk, b"m")
    wrong = sign(pair.sk, b"other")
    off_curve = pair.pk[:-1] + bytes([pair.pk[-1] ^ 1])
    for _ in range(2):
        assert not ver(off_curve, b"m", sigma)
        assert not ver(pair.pk, b"m", wrong)
        assert ver(pair.pk, b"m", sigma)
    assert crypto._verify.cache_info().currsize == 1


def test_failed_verifies_are_never_kept():
    # A flood of forged signatures under the genuine key can neither fill
    # the cache nor evict the verified triple.
    crypto._verify.cache_clear()
    pair = kg(Random(6))
    sigma = sign(pair.sk, b"m")
    assert ver(pair.pk, b"m", sigma)
    for i in range(100):
        assert not ver(pair.pk, b"m", sign(pair.sk, b"forged %d" % i))
    info = crypto._verify.cache_info()
    assert info.currsize == 1 and info.misses == 101
    assert ver(pair.pk, b"m", sigma)
    assert crypto._verify.cache_info().hits == info.hits + 1


def test_kg_seeded_is_reproducible():
    a = kg(Random(99))
    b = kg(Random(99))
    assert a.pk == b.pk and a.sk == b.sk


def test_kg_unseeded_is_randomized():
    assert kg().pk != kg().pk


# ---------------------------------------------------------------------------
# AEAD
# ---------------------------------------------------------------------------


def test_aead_roundtrip_empty_message():
    key, nonce, header = b"\x01" * 16, b"\x02" * 12, b"hdr"
    assert aead_open(key, nonce, header, aead_seal(key, nonce, header, b"")) == b""


def test_aead_tamper_last_ciphertext_byte():
    key, nonce, header = b"\x01" * 16, b"\x02" * 12, b"hdr"
    c = bytearray(aead_seal(key, nonce, header, b"payload"))
    c[-1] ^= 0x01
    assert aead_open(key, nonce, header, bytes(c)) is None


def test_aead_known_answer_zero_key():
    # NIST GCM vectors for AES-128, all-zero key, all-zero 96-bit nonce.
    key, nonce = b"\x00" * 16, b"\x00" * 12
    assert aead_seal(key, nonce, b"", b"").hex() == "58e2fccefa7e3061367f1d57a4e7455a"
    assert (
        aead_seal(key, nonce, b"", b"\x00" * 16).hex()
        == "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
    )


@settings(max_examples=200)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    header=st.binary(max_size=40),
    m=st.binary(max_size=200),
)
def test_aead_roundtrip_property(key, nonce, header, m):
    assert aead_open(key, nonce, header, aead_seal(key, nonce, header, m)) == m


def test_aead_tamper_sweep():
    # 1000 random cases: corrupt a random bit of ciphertext, header, or nonce.
    rng = Random(42)
    for i in range(1000):
        key = rng.randbytes(16)
        nonce = rng.randbytes(12)
        header = rng.randbytes(rng.randrange(1, 20))
        m = rng.randbytes(rng.randrange(0, 50))
        c = aead_seal(key, nonce, header, m)
        which = i % 3
        if which == 0:
            buf = bytearray(c)
        elif which == 1:
            buf = bytearray(header)
        else:
            buf = bytearray(nonce)
        buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
        args = [key, nonce, header, c]
        args[[3, 2, 1][which]] = bytes(buf)
        assert aead_open(*args) is None


def test_aead_cipher_cache_is_bounded_and_keeps_results_exact():
    rng = Random(18)
    key, nonce, header = rng.randbytes(16), rng.randbytes(12), b"hdr"
    first = aead_seal(key, nonce, header, b"first")
    # Far more keys than the cache holds: the first key's context is evicted.
    for _ in range(300):
        other = rng.randbytes(16)
        aead_seal(other, nonce, header, b"other")
        assert crypto._aesgcm.cache_info().currsize <= 256
    assert aead_open(key, nonce, header, first) == b"first"
    # A cached context for the right key still refuses a wrong key or tag.
    assert aead_open(other, nonce, header, first) is None
    flipped = bytearray(first)
    flipped[-1] ^= 0x80
    assert aead_open(key, nonce, header, bytes(flipped)) is None
    # Length checks come before any lookup.
    before = crypto._aesgcm.cache_info()
    for bad in (key[:15], key + b"\x00"):
        with pytest.raises(CryptoError):
            aead_seal(bad, nonce, header, b"m")
        assert aead_open(bad, nonce, header, first) is None
    after = crypto._aesgcm.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert after.maxsize == 256 and after.currsize <= 256


# ---------------------------------------------------------------------------
# Diffie-Hellman
# ---------------------------------------------------------------------------


def test_dh_symmetry_x25519():
    rng = Random(5)
    for _ in range(100):
        a = dh_keypair(rng)
        b = dh_keypair(rng)
        assert dh_shared(a, b.public) == dh_shared(b, a.public)


def test_dh_rejects_degenerate_x25519_public():
    pair = dh_keypair(Random(1))
    with pytest.raises(CryptoError):
        dh_shared(pair, b"\x00" * 32)


@pytest.mark.parametrize("peer", [b"\x01" + bytes(31), bytes(31) + b"\x80", b"\x01" * 5])
def test_dh_refuses_low_order_or_short_public_with_crypto_error(peer):
    # u = 1 and u = 2^255 (0 once the top bit is masked) are low-order points
    # (RFC 7748 §6.1): the library's ValueError comes out as CryptoError, as
    # a short value does.
    pair = dh_keypair(Random(1))
    with pytest.raises(CryptoError):
        dh_shared(pair, peer)


def test_dh_shared_builds_no_key(key_builds):
    a = dh_keypair(Random(1))
    b = dh_keypair(Random(2))
    assert key_builds == [a.secret, b.secret]
    assert dh_shared(a, b.public) == dh_shared(b, a.public)
    assert len(key_builds) == 2


def test_dh_keypair_repr_hides_the_secret():
    pair = dh_keypair(Random(1))
    text = repr(pair)
    assert repr(pair.secret) not in text and pair.secret.hex() not in text
    assert "secret" not in text
    assert repr(pair.public) in text


# ---------------------------------------------------------------------------
# extract_expand
# ---------------------------------------------------------------------------

# Frozen before the build from a hand-rolled HMAC-SHA256 chain; also matches
# RFC 5869 HKDF with the same salt/info (cross-checked below).
EXPAND_VECTOR = bytes.fromhex(
    "658a83de06424757294593fcbcaf224c959e1907a2e06d1493a69b2226eba370a7c3f5e2b7cf0133"
)


def test_extract_expand_oracle_vector():
    out = extract_expand(b"\x00" * 32, b"\x00" * 20, 0, b"", 40, 1)
    assert out == EXPAND_VECTOR


def test_extract_expand_matches_independent_hkdf():
    ipm, nonc, cid, m = b"\x07" * 32, b"\x09" * 20, 0x1122334455667788, b"transcript"
    info = b"QUIC key expansion" + b"\x00" + cid.to_bytes(8, "big") + m
    oracle = HKDF(algorithm=hashes.SHA256(), length=40, salt=nonc, info=info).derive(ipm)
    assert extract_expand(ipm, nonc, cid, m, 40, 1) == oracle


def test_extract_expand_output_length():
    assert len(extract_expand(b"\x00" * 32, b"\x00" * 20, 0, b"", 40, 1)) == 40


def test_extract_expand_labels_differ():
    a = extract_expand(b"\x01" * 32, b"\x02" * 20, 5, b"m", 40, 1)
    b = extract_expand(b"\x01" * 32, b"\x02" * 20, 5, b"m", 40, 0)
    assert a != b


def test_extract_expand_zero_length():
    assert extract_expand(b"k", b"s", 0, b"", 0, 1) == b""


def test_extract_expand_too_long():
    with pytest.raises(CryptoError):
        extract_expand(b"k", b"s", 0, b"", 255 * 32 + 1, 1)


@settings(max_examples=100)
@given(
    ipm=st.binary(min_size=1, max_size=64),
    nonc=st.binary(min_size=1, max_size=32),
    cid=st.integers(min_value=0, max_value=2**64 - 1),
    m=st.binary(max_size=64),
    l1=st.integers(min_value=0, max_value=128),
    l2=st.integers(min_value=0, max_value=128),
    init=st.integers(min_value=0, max_value=1),
)
def test_extract_expand_prefix_property(ipm, nonc, cid, m, l1, l2, init):
    lo, hi = sorted((l1, l2))
    long = extract_expand(ipm, nonc, cid, m, hi, init)
    short = extract_expand(ipm, nonc, cid, m, lo, init)
    assert long[:lo] == short


# ---------------------------------------------------------------------------
# split_keys / get_iv
# ---------------------------------------------------------------------------


def test_split_keys_zero_material():
    ks = split_keys(b"\x00" * 40)
    assert ks == crypto.NULL_KEYS


def test_split_keys_partition_property():
    rng = Random(11)
    material = rng.randbytes(40)
    ks = split_keys(material)
    assert ks.k_c + ks.k_s + ks.iv_c + ks.iv_s == material


def test_split_keys_both_roles_identical():
    material = Random(12).randbytes(40)
    # Role does not enter the slicing; call twice to mimic the two peers.
    assert split_keys(material) == split_keys(material)


def test_split_keys_wrong_length():
    with pytest.raises(CryptoError):
        split_keys(b"\x00" * 39)


def test_get_iv_layout():
    nonce = get_iv(bytes.fromhex("01020304"), 7)
    assert nonce == bytes.fromhex("01020304") + (7).to_bytes(8, "big")
    assert len(nonce) == 12


def test_get_iv_distinct_sqn_distinct_nonce():
    prefix = Random(4).randbytes(4)
    assert get_iv(prefix, 1) != get_iv(prefix, 2)


def test_extract_expand_is_hand_rolled_chain():
    # Pin the construction itself: one manual chain block.
    ipm, nonc = b"\x05" * 32, b"\x06" * 20
    ms = hmac.new(nonc, ipm, hashlib.sha256).digest()
    info = b"QUIC key expansion" + b"\x00" + (3).to_bytes(8, "big") + b"mm"
    t1 = hmac.new(ms, info + b"\x01", hashlib.sha256).digest()
    assert extract_expand(ipm, nonc, 3, b"mm", 32, 1) == t1
