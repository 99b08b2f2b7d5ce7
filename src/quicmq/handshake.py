"""Handshake state and message construction: server configuration, source
address tokens, the strike register, and the initial/forward-secure key
derivations.

The functions here are message-level; packetization, sequence numbers, and
retransmission live in the connection layer.
"""

from __future__ import annotations

import secrets as _secrets
from dataclasses import dataclass, field
from random import Random

from . import crypto, wire
from .crypto import (
    LABEL_SCFG_SIGNATURE,
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


# ---------------------------------------------------------------------------
# Server configuration (scfg)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServerConfig:
    """Semi-static server state: a medium-term DH value with an expiry,
    identified by scid = SHA-256(pub_s, expy) and signed by the server's
    long-term key. ``secret`` is present only on the server side."""

    scid: bytes
    group_id: int
    public: bytes
    expy: int
    div_nonce: bytes
    prof: bytes
    secret: bytes | None = None

    def pub_bytes(self) -> bytes:
        return bytes([self.group_id]) + self.public

    def serialize_pub(self) -> bytes:
        """Public part, as carried in REJ messages and mixed into the key
        expansion transcript."""
        pub = self.pub_bytes()
        return (
            self.scid
            + len(pub).to_bytes(2, "big")
            + pub
            + self.expy.to_bytes(4, "big")
            + self.div_nonce
        )

    @classmethod
    def parse_pub(cls, data: bytes, prof: bytes) -> "ServerConfig":
        if len(data) < 32 + 2:
            raise HandshakeError("scfg_malformed", "short")
        scid = data[:32]
        publen = int.from_bytes(data[32:34], "big")
        pos = 34
        if len(data) < pos + publen + 4 + 32:
            raise HandshakeError("scfg_malformed", "truncated")
        pub = data[pos:pos + publen]
        pos += publen
        expy = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
        div_nonce = data[pos:pos + 32]
        return cls(scid, pub[0], pub[1:], expy, div_nonce, prof)


def signed_blob(scid: bytes, pub_bytes: bytes, expy: int) -> bytes:
    return LABEL_SCFG_SIGNATURE + b"\x00" + scid + pub_bytes + expy.to_bytes(4, "big")


def get_scfg(sign_sk: bytes, now: float, lam: int = 128, rng: Random | None = None,
             group_id: int = 1, rotation_s: float = 86400.0) -> ServerConfig:
    """Mint a fresh server configuration valid for one rotation period."""
    if lam != 128:
        raise crypto.CryptoError(f"unsupported security parameter: {lam}")
    pair = dh_keypair(group_id, rng)
    expy = int(now + rotation_s)
    pub_bytes = bytes([group_id]) + pair.public
    scid = sha256(pub_bytes + expy.to_bytes(4, "big"))
    prof = sign(sign_sk, signed_blob(scid, pub_bytes, expy))
    div = rng.randbytes(32) if rng is not None else _secrets.token_bytes(32)
    return ServerConfig(scid, group_id, pair.public, expy, div, prof, secret=pair.secret)


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

def mint_stk(k_stk: bytes, client_ip: str, now: float, rng: Random | None = None) -> bytes:
    iv = rng.randbytes(12) if rng is not None else _secrets.token_bytes(12)
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
    """Replay defense: remembers every accepted handshake nonce and bounds
    acceptable client timestamps to a window around server time."""

    def __init__(self, window_s: float = 300.0):
        self.window_s = window_s
        self.seen: set[bytes] = set()

    def check(self, nonc: bytes, now: float) -> None:
        """Raise unless ``nonc`` is well formed, unseen and inside the
        timestamp window, in that order. Recording an accepted nonce in
        ``seen`` is the caller's last step, after its own guards."""
        if len(nonc) != NONC_LEN:
            raise HandshakeError("nonc_malformed")
        if nonc in self.seen:
            raise HandshakeError("nonc_replayed")
        ts = int.from_bytes(nonc[:4], "big")
        if abs(now - ts) > self.window_s:
            raise HandshakeError("nonc_out_of_window")


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


def make_nonc(now: float, rng: Random | None = None) -> bytes:
    r = rng.randbytes(20) if rng is not None else _secrets.token_bytes(20)
    return encode_time(now) + r


def build_full_chlo(cfg: ServerConfig, stk: bytes, now: float,
                    rng: Random | None = None) -> tuple[HandshakeMessage, ClientHelloSecrets]:
    """Build a full CHLO against a validated server config, minting a fresh
    nonce and ephemeral DH value. The padded wire bytes recorded in the
    secrets feed the key expansion on both sides."""
    nonc = make_nonc(now, rng)
    pair = dh_keypair(cfg.group_id, rng)
    msg = HandshakeMessage(wire.MSG_CHLO, {
        wire.TAG_STK: stk,
        wire.TAG_SCID: cfg.scid,
        wire.TAG_NONC: nonc,
        wire.TAG_PUBC: bytes([cfg.group_id]) + pair.public,
        wire.TAG_VER: wire.VERSION,
    })
    return msg, ClientHelloSecrets(nonc=nonc, dh=pair, chlo_wire=b"")


def build_rej(cfg: ServerConfig, k_stk: bytes, client_ip: str, now: float,
              rng: Random | None = None) -> HandshakeMessage:
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


def derive_ik_client(secrets: ClientHelloSecrets, cfg: ServerConfig, cid: int) -> KeySet:
    ipm = dh_shared(secrets.dh, cfg.public)
    material = extract_expand(ipm, secrets.nonc, cid,
                              ik_transcript(secrets.chlo_wire, cfg), 40, 1)
    return split_keys(material)


def derive_k_client(secrets: ClientHelloSecrets, cfg: ServerConfig, cid: int,
                    shlo_inner: bytes, server_ephemeral_pub: bytes) -> KeySet:
    pms = dh_shared(secrets.dh, server_ephemeral_pub)
    transcript = secrets.chlo_wire + shlo_inner + cfg.serialize_pub()
    return split_keys(extract_expand(pms, secrets.nonc, cid, transcript, 40, 0))


@dataclass
class ServerIdentity:
    """Long-lived broker-side handshake state, shared by every connection:
    the signing key, the token key, the current (and rotated-out) configs,
    and the strike register."""

    sign_pair: crypto.SignatureKeyPair
    k_stk: bytes
    scfg: ServerConfig
    strike: StrikeRegister
    stk_validity_s: float = 86400.0
    retired: dict[bytes, ServerConfig] = field(default_factory=dict)

    @classmethod
    def create(cls, now: float, rng: Random | None = None, group_id: int = 1,
               rotation_s: float = 86400.0, strike_window_s: float = 300.0,
               stk_validity_s: float = 86400.0) -> "ServerIdentity":
        pair = crypto.kg(128, rng)
        k_stk = rng.randbytes(16) if rng is not None else _secrets.token_bytes(16)
        scfg = get_scfg(pair.sk, now, 128, rng, group_id, rotation_s)
        return cls(pair, k_stk, scfg, StrikeRegister(strike_window_s),
                   stk_validity_s=stk_validity_s)

    def rotate_scfg(self, now: float, rng: Random | None = None,
                    rotation_s: float = 86400.0) -> None:
        self.retired[self.scfg.scid] = self.scfg
        self.scfg = get_scfg(self.sign_pair.sk, now, 128, rng,
                             self.scfg.group_id, rotation_s)

    # -- full CHLO validation -------------------------------------------------

    def validate_full_chlo(self, msg: HandshakeMessage, chlo_wire: bytes,
                           source_ip: str, cid: int, now: float) -> tuple[KeySet, bytes]:
        """Run the server-side guards in order and derive the initial keys.

        Returns (ik, nonc); raises HandshakeError with one of the reasons
        stk_invalid, stk_ip_mismatch, stk_stale, nonc_replayed,
        nonc_out_of_window, scid_unknown, scid_expired, group_mismatch.
        On success the nonce is recorded in the strike register.
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
        if not (-self.strike.window_s <= now - stk_ts <= self.stk_validity_s):
            raise HandshakeError("stk_stale")

        # The nonce is only recorded once every guard has passed.
        self.strike.check(nonc, now)

        if scid != self.scfg.scid:
            if scid in self.retired:
                raise HandshakeError("scid_expired")
            raise HandshakeError("scid_unknown")
        if self.scfg.expy <= now:
            raise HandshakeError("scid_expired")

        if not pubc or pubc[0] != self.scfg.group_id:
            raise HandshakeError("group_mismatch")

        self.strike.seen.add(nonc)

        group = crypto.GROUPS[self.scfg.group_id]
        ipm = group.shared(self.scfg.secret, pubc[1:])
        material = extract_expand(ipm, nonc, cid, ik_transcript(chlo_wire, self.scfg), 40, 1)
        return split_keys(material), nonc

    # -- SHLO -------------------------------------------------------------------

    def build_shlo(self, client_ip: str, now: float,
                   rng: Random | None = None) -> tuple[HandshakeMessage, crypto.DhKeyPair]:
        """Fresh ephemeral DH values plus a refreshed token for the client's
        next resumption."""
        pair = dh_keypair(self.scfg.group_id, rng)
        msg = HandshakeMessage(wire.MSG_SHLO, {
            wire.TAG_PUBS: bytes([self.scfg.group_id]) + pair.public,
            wire.TAG_STK: mint_stk(self.k_stk, client_ip, now, rng),
        })
        return msg, pair

    def derive_k_server(self, ephemeral: crypto.DhKeyPair, client_pub: bytes,
                        nonc: bytes, cid: int, chlo_wire: bytes,
                        shlo_inner: bytes) -> KeySet:
        pms = dh_shared(ephemeral, client_pub)
        transcript = chlo_wire + shlo_inner + self.scfg.serialize_pub()
        return split_keys(extract_expand(pms, nonc, cid, transcript, 40, 0))
