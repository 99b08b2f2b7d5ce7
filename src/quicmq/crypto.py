"""Cryptographic primitives for the transport: signatures, AEAD, Diffie-Hellman
key agreement, and the HKDF key expansion that produces directional key
sets.

Everything here is a pure function of its inputs plus an ``rng``. Every
random byte comes from ``SYSTEM_RNG``, the OS generator, unless a caller
passes a seeded ``random.Random``, as the simulator, the benchmarks and the
tests do.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from random import Random, SystemRandom

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

AEAD_KEY_LEN = 16  # AES-128-GCM
NONCE_LEN = 12  # 4-byte IV prefix + 8-byte sequence number
KEY_MATERIAL_LEN = 40  # 16 + 16 + 4 + 4
GCM_TAG_LEN = 16

LABEL_INITIAL = b"QUIC key expansion"
LABEL_FORWARD_SECURE = b"QUIC forward secure key expansion"
# The config signature label; one constant used by both signer and verifier.
LABEL_SCFG_SIGNATURE = b"QUIC Server Config Signature"

_HASH_LEN = 32

# The one source of random bytes when no seeded ``Random`` is given: it reads
# ``os.urandom``, so no secret can be predicted from earlier outputs.
SYSTEM_RNG = SystemRandom()


class CryptoError(Exception):
    """Raised for unusable crypto inputs (bad lengths, degenerate DH values)."""


# ---------------------------------------------------------------------------
# Signature scheme (ECDSA-P256-SHA256 behind a keygen/sign/verify interface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignatureKeyPair:
    """Public/secret key pair. ``pk`` is a SEC1 uncompressed point, ``sk``
    the 32-byte private scalar."""

    pk: bytes
    sk: bytes


_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def kg(rng: Random = SYSTEM_RNG) -> SignatureKeyPair:
    """Generate a P-256 signing key pair. A seeded ``rng`` makes the result
    reproducible."""
    priv = ec.derive_private_key(rng.randrange(1, _P256_ORDER), ec.SECP256R1())
    pk = priv.public_key().public_bytes(Encoding.X962, PublicFormat.UncompressedPoint)
    sk = priv.private_numbers().private_value.to_bytes(32, "big")
    return SignatureKeyPair(pk=pk, sk=sk)


def sign(sk: bytes, m: bytes) -> bytes:
    """Sign with a nonce derived from the key and the message (RFC 6979),
    so one key signs one message to the same bytes on every run."""
    priv = ec.derive_private_key(int.from_bytes(sk, "big"), ec.SECP256R1())
    return priv.sign(m, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))


# Verified triples, kept once each: a client checks the same server config on
# every connect, and verification is a pure function of the triple. A failed
# check raises, and lru_cache keeps no exception, so only triples the key
# really signed are held, and every failing input is checked on every call.
@functools.lru_cache(maxsize=16)
def _verify(pk: bytes, m: bytes, sigma: bytes) -> None:
    key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), pk)
    key.verify(sigma, m, ec.ECDSA(hashes.SHA256()))


def ver(pk: bytes, m: bytes, sigma: bytes) -> bool:
    """Verify a signature. Returns False (never raises) on any malformed or
    mismatching input."""
    try:
        _verify(pk, m, sigma)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


# ---------------------------------------------------------------------------
# AEAD (AES-128-GCM: 128-bit key, 96-bit nonce, 128-bit tag)
# ---------------------------------------------------------------------------

# One cipher context per recently used key. Building one costs more than
# sealing a packet with it; each holds about 2.4 KB of native memory, so the
# cache is bounded rather than kept per key set.
_aesgcm = functools.lru_cache(maxsize=256)(AESGCM)


def aead_seal(key: bytes, nonce: bytes, header: bytes, m: bytes) -> bytes:
    """Seal ``m`` under ``key``/``nonce`` authenticating ``header``.

    Returns ciphertext followed by the 16-byte tag.
    """
    if len(key) != AEAD_KEY_LEN:
        raise CryptoError(f"AEAD key must be {AEAD_KEY_LEN} bytes")
    if len(nonce) != NONCE_LEN:
        raise CryptoError(f"nonce must be {NONCE_LEN} bytes")
    return _aesgcm(key).encrypt(nonce, m, header)


def aead_open(key: bytes, nonce: bytes, header: bytes, c: bytes) -> bytes | None:
    """Open a sealed payload. Returns None on any authentication failure;
    the caller is expected to drop the packet."""
    if len(key) != AEAD_KEY_LEN or len(nonce) != NONCE_LEN:
        return None
    try:
        return _aesgcm(key).decrypt(nonce, c, header)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Diffie-Hellman: X25519 (RFC 7748), the one group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DhKeyPair:
    """A DH key pair. ``key`` is the library's private key, built once from
    ``secret`` when the pair is made; every exchange reuses it."""

    secret: bytes = field(repr=False)
    public: bytes
    key: X25519PrivateKey = field(compare=False, repr=False)


class X25519Group:
    """The DH group. Public values are the raw 32-byte u-coordinate."""

    def keypair(self, rng: Random = SYSTEM_RNG) -> DhKeyPair:
        raw = rng.randbytes(32)
        priv = X25519PrivateKey.from_private_bytes(raw)
        return DhKeyPair(raw, priv.public_key().public_bytes_raw(), priv)

    def shared(self, key: X25519PrivateKey, peer_public: bytes) -> bytes:
        if len(peer_public) != 32:
            raise CryptoError("x25519 public value must be 32 bytes")
        if peer_public == b"\x00" * 32:
            raise CryptoError("degenerate x25519 public value")
        try:
            out = key.exchange(X25519PublicKey.from_public_bytes(peer_public))
        except ValueError:
            # The library refuses a low-order point, whose output is all zero.
            raise CryptoError("x25519 low-order public value") from None
        if out == b"\x00" * 32:  # RFC 7748 §6.1
            raise CryptoError("x25519 produced an all-zero shared secret")
        return out


_X25519 = X25519Group()


def dh_keypair(rng: Random = SYSTEM_RNG) -> DhKeyPair:
    return _X25519.keypair(rng)


def dh_shared(pair: DhKeyPair, peer_public: bytes) -> bytes:
    return _X25519.shared(pair.key, peer_public)


# ---------------------------------------------------------------------------
# Key expansion and key sets
# ---------------------------------------------------------------------------

def extract_expand(ipm: bytes, nonc: bytes, cid: int, m: bytes, l: int,
                   init: int) -> bytes:
    """Expand shared key material into ``l`` bytes of output: HKDF-SHA256
    (RFC 5869) with salt ``nonc`` and ``info = label || 0x00 || cid || m``.
    The label differs between the initial (``init=1``) and forward-secure
    (``init=0``) derivations, so the two schedules can never collide.
    """
    if l < 0:
        raise CryptoError("negative output length")
    if l > 255 * _HASH_LEN:
        raise CryptoError("expansion output too long")
    label = LABEL_INITIAL if init else LABEL_FORWARD_SECURE
    info = label + b"\x00" + cid.to_bytes(8, "big") + m
    return HKDF(hashes.SHA256(), l, nonc, info).derive(ipm)


@dataclass(frozen=True, slots=True)
class KeySet:
    """Directional keys for one epoch: two 128-bit keys plus two 4-byte IV
    prefixes. Packets addressed *to* the client use (k_c, iv_c); packets
    addressed *to* the server use (k_s, iv_s)."""

    k_c: bytes
    k_s: bytes
    iv_c: bytes
    iv_s: bytes

    def __post_init__(self):
        if len(self.k_c) != 16 or len(self.k_s) != 16:
            raise CryptoError("keys must be 16 bytes")
        if len(self.iv_c) != 4 or len(self.iv_s) != 4:
            raise CryptoError("IV prefixes must be 4 bytes")


NULL_KEYS = KeySet(b"\x00" * 16, b"\x00" * 16, b"\x00" * 4, b"\x00" * 4)


def split_keys(material: bytes) -> KeySet:
    """Slice 40 bytes of expansion output into a KeySet. The slicing is
    role-independent: both peers derive identical key sets from identical
    material."""
    if len(material) != KEY_MATERIAL_LEN:
        raise CryptoError(f"key material must be {KEY_MATERIAL_LEN} bytes")
    return KeySet(
        k_c=material[0:16],
        k_s=material[16:32],
        iv_c=material[32:36],
        iv_s=material[36:40],
    )


def get_iv(prefix: bytes, sqn: int) -> bytes:
    """Build the 12-byte nonce for a packet: the 4-byte IV prefix of the
    packet's direction followed by the 8-byte big-endian sequence number."""
    return prefix + sqn.to_bytes(8, "big")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()
