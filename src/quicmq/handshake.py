"""Handshake state and message construction: server configuration, source
address tokens, the strike register, and the initial/forward-secure key
derivations.

The functions here are message-level; packetization, sequence numbers, and
retransmission live in the connection layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from random import Random

from . import crypto, wire
from .crypto import (
    LABEL_SCFG_SIGNATURE,
    SYSTEM_RNG,
    CryptoError,
    KeySet,
    dh_keypair,
    dh_shared,
    extract_expand,
    sha256,
    sign,
    split_keys,
    ver,
)
from .wire import HandshakeMessage

STK_LEN = 12 + 8 + 16  # iv || ct(ip4 + time4) || tag
NONC_LEN = 24  # 4-byte client timestamp || 160-bit random
GROUP_ID = 1  # X25519: the byte in front of every DH public value on the wire
SCFG_LIFETIME_S = 86400.0  # a server config expires this long after it is minted
STK_VALIDITY_S = 86400.0  # a source-address token is accepted this long after minting
STRIKE_WINDOW_S = 300.0  # how far a client timestamp may stray from server time


class HandshakeError(Exception):
    """Handshake guard failure with a machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


def encode_ipv4(ip: str) -> bytes:
    parts = [int(p) for p in ip.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"not an IPv4 address: {ip!r}")
    return bytes(parts)


def encode_time(t: float) -> bytes:
    return (int(t) & 0xFFFFFFFF).to_bytes(4, "big")


def parse_public(value: bytes, reason: str) -> bytes:
    """A DH public value as carried on the wire, the group byte then the
    32-byte X25519 value: return the value, or raise ``reason``."""
    if len(value) != 33 or value[0] != GROUP_ID:
        raise HandshakeError(reason)
    return value[1:]


# ---------------------------------------------------------------------------
# Server configuration (scfg)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServerConfig:
    """Semi-static server state: a medium-term DH value with an expiry,
    identified by scid = SHA-256(pub_s, expy) and signed by the server's
    long-term key. ``dh``, the key pair behind ``public``, is present only on
    the server side."""

    scid: bytes
    public: bytes
    expy: int
    prof: bytes
    dh: crypto.DhKeyPair | None = field(default=None, compare=False, repr=False)

    def pub_bytes(self) -> bytes:
        return bytes([GROUP_ID]) + self.public

    def serialize_pub(self) -> bytes:
        """Public part, as carried in REJ messages and mixed into the key
        expansion transcript."""
        pub = self.pub_bytes()
        return self.scid + len(pub).to_bytes(2, "big") + pub + self.expy.to_bytes(4, "big")

    @classmethod
    def parse_pub(cls, data: bytes, prof: bytes) -> "ServerConfig":
        if len(data) < 32 + 2:
            raise HandshakeError("scfg_malformed", "short")
        publen = int.from_bytes(data[32:34], "big")
        if len(data) < 34 + publen + 4:
            raise HandshakeError("scfg_malformed", "truncated")
        public = parse_public(data[34:34 + publen], "scfg_malformed")
        expy = int.from_bytes(data[34 + publen:38 + publen], "big")
        return cls(data[:32], public, expy, prof)


def signed_blob(scid: bytes, pub_bytes: bytes, expy: int) -> bytes:
    return LABEL_SCFG_SIGNATURE + b"\x00" + scid + pub_bytes + expy.to_bytes(4, "big")


def get_scfg(sign_sk: bytes, now: float, rng: Random = SYSTEM_RNG) -> ServerConfig:
    """Mint a fresh server configuration valid for SCFG_LIFETIME_S."""
    pair = dh_keypair(rng)
    expy = int(now + SCFG_LIFETIME_S)
    pub_bytes = bytes([GROUP_ID]) + pair.public
    scid = sha256(pub_bytes + expy.to_bytes(4, "big"))
    prof = sign(sign_sk, signed_blob(scid, pub_bytes, expy))
    return ServerConfig(scid, pair.public, expy, prof, dh=pair)


def check_scfg(cfg: ServerConfig, server_pk: bytes, now: float) -> None:
    """Client-side validation: recompute scid, verify the signature, and
    refuse expired configs."""
    expected = sha256(cfg.pub_bytes() + cfg.expy.to_bytes(4, "big"))
    if expected != cfg.scid:
        raise HandshakeError("scfg_bad_scid")
    if cfg.expy <= now:
        raise HandshakeError("scfg_expired")
    if not ver(server_pk, signed_blob(cfg.scid, cfg.pub_bytes(), cfg.expy), cfg.prof):
        raise HandshakeError("scfg_bad_signature")


# ---------------------------------------------------------------------------
# Source address tokens
# ---------------------------------------------------------------------------

def mint_stk(k_stk: bytes, client_ip: str, now: float, rng: Random = SYSTEM_RNG) -> bytes:
    iv = rng.randbytes(12)
    plaintext = encode_ipv4(client_ip) + encode_time(now)
    return iv + crypto.aead_seal(k_stk, iv, b"", plaintext)


def open_stk(k_stk: bytes, stk: bytes) -> tuple[str, int] | None:
    """Decrypt a token; only the minting server holds k_stk. Returns
    (client_ip, timestamp) or None."""
    if len(stk) != STK_LEN:
        return None
    iv, ct = stk[:12], stk[12:]
    plaintext = crypto.aead_open(k_stk, iv, b"", ct)
    if plaintext is None or len(plaintext) != 8:
        return None
    ip = ".".join(str(b) for b in plaintext[:4])
    ts = int.from_bytes(plaintext[4:], "big")
    return ip, ts


# ---------------------------------------------------------------------------
# Strike register
# ---------------------------------------------------------------------------

class StrikeRegister:
    """Replay defense: remembers the accepted handshake nonces and bounds
    acceptable client timestamps to a window around server time. A nonce
    whose timestamp has fallen out of the window is refused by that test
    alone, so it is forgotten: after each accept the register holds at most
    the nonces accepted in the two windows before it."""

    def __init__(self):
        self.seen: set[bytes] = set()
        self._order: deque[tuple[int, bytes]] = deque()  # (timestamp, nonce), as accepted

    def check(self, nonc: bytes, now: float) -> None:
        """Raise unless ``nonc`` is well formed, unseen and inside the
        timestamp window, in that order. Recording an accepted nonce with
        ``record`` is the caller's last step, after its own guards."""
        if len(nonc) != NONC_LEN:
            raise HandshakeError("nonc_malformed")
        if nonc in self.seen:
            raise HandshakeError("nonc_replayed")
        ts = int.from_bytes(nonc[:4], "big")
        if abs(now - ts) > STRIKE_WINDOW_S:
            raise HandshakeError("nonc_out_of_window")

    def record(self, nonc: bytes, now: float) -> None:
        """Remember an accepted nonce and forget, oldest accepted first, those
        whose timestamp is over STRIKE_WINDOW_S behind ``now``. An accepted
        timestamp is within STRIKE_WINDOW_S of its acceptance, so one still
        in the window holds back the rest for at most two windows."""
        self.seen.add(nonc)
        self._order.append((int.from_bytes(nonc[:4], "big"), nonc))
        while self._order and self._order[0][0] < now - STRIKE_WINDOW_S:
            self.seen.discard(self._order.popleft()[1])


# ---------------------------------------------------------------------------
# Client hello construction
# ---------------------------------------------------------------------------

@dataclass
class ClientHelloSecrets:
    """Client-side ephemeral state backing one full CHLO."""
    nonc: bytes
    dh: crypto.DhKeyPair
    chlo_wire: bytes  # padded message bytes, the key-expansion transcript


def build_inchoate_chlo() -> HandshakeMessage:
    msg = HandshakeMessage(wire.MSG_CHLO, {wire.TAG_VER: wire.VERSION})
    return msg


def make_nonc(now: float, rng: Random = SYSTEM_RNG) -> bytes:
    return encode_time(now) + rng.randbytes(20)


def build_full_chlo(cfg: ServerConfig, stk: bytes, now: float,
                    rng: Random = SYSTEM_RNG) -> tuple[HandshakeMessage, ClientHelloSecrets]:
    """Build a full CHLO against a validated server config, minting a fresh
    nonce and ephemeral DH value. The padded wire bytes recorded in the
    secrets feed the key expansion on both sides."""
    nonc = make_nonc(now, rng)
    pair = dh_keypair(rng)
    msg = HandshakeMessage(wire.MSG_CHLO, {
        wire.TAG_STK: stk,
        wire.TAG_SCID: cfg.scid,
        wire.TAG_NONC: nonc,
        wire.TAG_PUBC: bytes([GROUP_ID]) + pair.public,
        wire.TAG_VER: wire.VERSION,
    })
    return msg, ClientHelloSecrets(nonc=nonc, dh=pair, chlo_wire=b"")


def build_rej(cfg: ServerConfig, k_stk: bytes, client_ip: str, now: float,
              rng: Random = SYSTEM_RNG) -> HandshakeMessage:
    return HandshakeMessage(wire.MSG_REJ, {
        wire.TAG_SCFG: cfg.serialize_pub(),
        wire.TAG_PROF: cfg.prof,
        wire.TAG_STK: mint_stk(k_stk, client_ip, now, rng),
    })


def parse_rej(msg: HandshakeMessage) -> tuple[ServerConfig, bytes]:
    if msg.kind != wire.MSG_REJ:
        raise HandshakeError("not_a_rej")
    try:
        scfg = ServerConfig.parse_pub(msg.fields[wire.TAG_SCFG], msg.fields[wire.TAG_PROF])
        stk = msg.fields[wire.TAG_STK]
    except KeyError as e:
        raise HandshakeError("rej_malformed", str(e)) from None
    return scfg, stk


def is_full_chlo(msg: HandshakeMessage) -> bool:
    return msg.kind == wire.MSG_CHLO and wire.TAG_NONC in msg.fields


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

def ik_transcript(chlo_wire: bytes, cfg: ServerConfig) -> bytes:
    return chlo_wire + cfg.serialize_pub()


def initial_keys(own: crypto.DhKeyPair, peer_public: bytes, nonc: bytes, cid: int,
                 chlo_wire: bytes, cfg: ServerConfig) -> KeySet:
    """ik, the same at both ends: the client's ephemeral value against the
    config's, over the padded CHLO and the config."""
    ipm = dh_shared(own, peer_public)
    return split_keys(extract_expand(ipm, nonc, cid, ik_transcript(chlo_wire, cfg), 40, 1))


def forward_keys(own: crypto.DhKeyPair, peer_public: bytes, nonc: bytes, cid: int,
                 chlo_wire: bytes, shlo_inner: bytes, cfg: ServerConfig) -> KeySet:
    """k, the same at both ends: the two ephemeral values, over the padded
    CHLO, the SHLO and the config."""
    pms = dh_shared(own, peer_public)
    transcript = chlo_wire + shlo_inner + cfg.serialize_pub()
    return split_keys(extract_expand(pms, nonc, cid, transcript, 40, 0))


def derive_ik_client(secrets: ClientHelloSecrets, cfg: ServerConfig, cid: int) -> KeySet:
    return initial_keys(secrets.dh, cfg.public, secrets.nonc, cid, secrets.chlo_wire, cfg)


def derive_k_client(secrets: ClientHelloSecrets, cfg: ServerConfig, cid: int,
                    shlo_inner: bytes, server_ephemeral_pub: bytes) -> KeySet:
    return forward_keys(secrets.dh, server_ephemeral_pub, secrets.nonc, cid,
                        secrets.chlo_wire, shlo_inner, cfg)


@dataclass
class ServerIdentity:
    """Long-lived broker-side handshake state, shared by every connection:
    the signing key, the token key, the current config, the scids of the
    rotated-out ones, and the strike register. A rotated-out config is kept
    by its scid alone, so its DH private key goes with it."""

    sign_pair: crypto.SignatureKeyPair
    k_stk: bytes
    scfg: ServerConfig
    strike: StrikeRegister
    retired: set[bytes] = field(default_factory=set)

    @classmethod
    def create(cls, now: float, rng: Random = SYSTEM_RNG) -> "ServerIdentity":
        pair = crypto.kg(rng)
        k_stk = rng.randbytes(16)
        scfg = get_scfg(pair.sk, now, rng)
        return cls(pair, k_stk, scfg, StrikeRegister())

    def rotate_scfg(self, now: float, rng: Random = SYSTEM_RNG) -> None:
        self.retired.add(self.scfg.scid)
        self.scfg = get_scfg(self.sign_pair.sk, now, rng)

    # -- full CHLO validation -------------------------------------------------

    def validate_full_chlo(self, msg: HandshakeMessage, chlo_wire: bytes,
                           source_ip: str, cid: int, now: float
                           ) -> tuple[KeySet, bytes, bytes]:
        """Run the server-side guards in order and derive the initial keys.

        Returns (ik, nonc, the client's DH public value); raises
        HandshakeError with one of the reasons stk_invalid, stk_ip_mismatch,
        stk_stale, nonc_replayed, nonc_out_of_window, scid_unknown,
        scid_expired, group_mismatch, pubc_invalid. On success the nonce is
        recorded in the strike register.
        """
        try:
            stk = msg.fields[wire.TAG_STK]
            scid = msg.fields[wire.TAG_SCID]
            nonc = msg.fields[wire.TAG_NONC]
            pubc = msg.fields[wire.TAG_PUBC]
        except KeyError as e:
            raise HandshakeError("chlo_malformed", str(e)) from None

        opened = open_stk(self.k_stk, stk)
        if opened is None:
            raise HandshakeError("stk_invalid")
        stk_ip, stk_ts = opened
        if stk_ip != source_ip:
            raise HandshakeError("stk_ip_mismatch")
        if not (-STRIKE_WINDOW_S <= now - stk_ts <= STK_VALIDITY_S):
            raise HandshakeError("stk_stale")

        # The nonce is recorded only once every guard, the DH included, passed.
        self.strike.check(nonc, now)

        if scid != self.scfg.scid:
            if scid in self.retired:
                raise HandshakeError("scid_expired")
            raise HandshakeError("scid_unknown")
        if self.scfg.expy <= now:
            raise HandshakeError("scid_expired")

        if pubc[:1] != bytes([GROUP_ID]):
            raise HandshakeError("group_mismatch")
        client_pub = parse_public(pubc, "pubc_invalid")
        try:
            ik = initial_keys(self.scfg.dh, client_pub, nonc, cid, chlo_wire, self.scfg)
        except CryptoError:
            raise HandshakeError("pubc_invalid") from None

        self.strike.record(nonc, now)
        return ik, nonc, client_pub

    # -- SHLO -------------------------------------------------------------------

    def build_shlo(self, rng: Random = SYSTEM_RNG) -> tuple[HandshakeMessage, crypto.DhKeyPair]:
        """The server's fresh ephemeral DH value, the SHLO's only field. It
        carries no token: the client resumes with the REJ's."""
        pair = dh_keypair(rng)
        msg = HandshakeMessage(wire.MSG_SHLO, {wire.TAG_PUBS: bytes([GROUP_ID]) + pair.public})
        return msg, pair

    def derive_k_server(self, ephemeral: crypto.DhKeyPair, client_pub: bytes,
                        nonc: bytes, cid: int, chlo_wire: bytes,
                        shlo_inner: bytes) -> KeySet:
        return forward_keys(ephemeral, client_pub, nonc, cid, chlo_wire, shlo_inner,
                            self.scfg)
