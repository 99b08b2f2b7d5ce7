from random import Random

import pytest

from quicmq import wire
from quicmq.crypto import sha256, ver
from quicmq.handshake import (
    NONC_LEN,
    HandshakeError,
    ServerConfig,
    ServerIdentity,
    StrikeRegister,
    build_full_chlo,
    build_inchoate_chlo,
    build_rej,
    check_scfg,
    derive_ik_client,
    derive_k_client,
    encode_ipv4,
    get_scfg,
    ik_transcript,
    is_full_chlo,
    make_nonc,
    mint_stk,
    open_stk,
    parse_rej,
    signed_blob,
)
from quicmq.crypto import kg

NOW = 1_000_000.0


@pytest.fixture
def identity():
    return ServerIdentity.create(now=NOW, rng=Random(5))


# ---------------------------------------------------------------------------
# Server configuration
# ---------------------------------------------------------------------------


def test_scfg_signature_verifies(identity):
    cfg = identity.scfg
    blob = signed_blob(cfg.scid, cfg.pub_bytes(), cfg.expy)
    assert ver(identity.sign_pair.pk, blob, cfg.prof)


def test_scid_is_hash_of_public_and_expiry(identity):
    cfg = identity.scfg
    assert cfg.scid == sha256(cfg.pub_bytes() + cfg.expy.to_bytes(4, "big"))


def test_check_scfg_accepts_fresh(identity):
    check_scfg(identity.scfg, identity.sign_pair.pk, NOW + 10)


def test_check_scfg_rejects_expired(identity):
    rotation = 86400.0
    cfg = get_scfg(identity.sign_pair.sk, NOW, rng=Random(1), rotation_s=rotation)
    with pytest.raises(HandshakeError) as e:
        check_scfg(cfg, identity.sign_pair.pk, NOW + rotation + 1)
    assert e.value.reason == "scfg_expired"


def test_check_scfg_rejects_tampered_signature(identity):
    cfg = identity.scfg
    bad = ServerConfig(cfg.scid, cfg.group_id, cfg.public, cfg.expy,
                       cfg.div_nonce, cfg.prof[:-1] + bytes([cfg.prof[-1] ^ 1]))
    with pytest.raises(HandshakeError) as e:
        check_scfg(bad, identity.sign_pair.pk, NOW)
    assert e.value.reason == "scfg_bad_signature"


def test_check_scfg_rejects_wrong_scid(identity):
    cfg = identity.scfg
    bad = ServerConfig(b"\x00" * 32, cfg.group_id, cfg.public, cfg.expy,
                       cfg.div_nonce, cfg.prof)
    with pytest.raises(HandshakeError) as e:
        check_scfg(bad, identity.sign_pair.pk, NOW)
    assert e.value.reason == "scfg_bad_scid"


def test_scfg_pub_serialization_roundtrip(identity):
    cfg = identity.scfg
    parsed = ServerConfig.parse_pub(cfg.serialize_pub(), cfg.prof)
    assert parsed.scid == cfg.scid
    assert parsed.public == cfg.public
    assert parsed.expy == cfg.expy
    assert parsed.div_nonce == cfg.div_nonce
    assert parsed.secret is None


# ---------------------------------------------------------------------------
# Source address tokens
# ---------------------------------------------------------------------------


def test_stk_roundtrip(identity):
    stk = mint_stk(identity.k_stk, "10.0.0.7", NOW, Random(1))
    opened = open_stk(identity.k_stk, stk)
    assert opened == ("10.0.0.7", int(NOW))


def test_stk_distinct_ivs(identity):
    rng = Random(2)
    a = mint_stk(identity.k_stk, "10.0.0.7", NOW, rng)
    b = mint_stk(identity.k_stk, "10.0.0.7", NOW, rng)
    assert a[:12] != b[:12]


def test_stk_only_minting_server_opens(identity):
    stk = mint_stk(identity.k_stk, "10.0.0.7", NOW, Random(1))
    other = ServerIdentity.create(now=NOW, rng=Random(99))
    assert open_stk(other.k_stk, stk) is None


def test_stk_garbage_rejected(identity):
    assert open_stk(identity.k_stk, b"") is None
    assert open_stk(identity.k_stk, b"\x00" * 36) is None


def test_encode_ipv4_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_ipv4("hostname")
    with pytest.raises(ValueError):
        encode_ipv4("1.2.3.400")


# ---------------------------------------------------------------------------
# Strike register
# ---------------------------------------------------------------------------


def test_strike_accepts_once_then_rejects():
    strike = StrikeRegister(window_s=300)
    nonc = make_nonc(NOW, Random(1))
    strike.check(nonc, NOW)
    strike.seen.add(nonc)
    with pytest.raises(HandshakeError) as e:
        strike.check(nonc, NOW)
    assert e.value.reason == "nonc_replayed"


def test_strike_rejects_out_of_window():
    strike = StrikeRegister(window_s=300)
    nonc = make_nonc(NOW - 301, Random(1))
    with pytest.raises(HandshakeError) as e:
        strike.check(nonc, NOW)
    assert e.value.reason == "nonc_out_of_window"


def test_nonc_length():
    # 4-byte timestamp plus 160 random bits.
    assert len(make_nonc(NOW, Random(3))) == NONC_LEN == 24


# ---------------------------------------------------------------------------
# Hello construction and validation
# ---------------------------------------------------------------------------


def test_inchoate_chlo_is_not_full():
    msg = build_inchoate_chlo()
    assert msg.kind == wire.MSG_CHLO
    assert not is_full_chlo(msg)


def test_rej_roundtrip_and_full_chlo(identity):
    rej = build_rej(identity.scfg, identity.k_stk, "10.0.0.2", NOW, Random(1))
    scfg, stk = parse_rej(rej)
    assert scfg.scid == identity.scfg.scid
    chlo, secrets = build_full_chlo(scfg, stk, NOW, Random(2))
    assert is_full_chlo(chlo)
    assert len(chlo.fields[wire.TAG_NONC]) == 24


def _accepted_chlo(identity, source_ip="10.0.0.2", now=NOW, rng_seed=2,
                   mutate=None):
    """Build a full CHLO against the identity and validate it server-side."""
    rej = build_rej(identity.scfg, identity.k_stk, source_ip, now, Random(1))
    scfg, stk = parse_rej(rej)
    chlo, secrets = build_full_chlo(scfg, stk, now, Random(rng_seed))
    if mutate is not None:
        mutate(chlo)
    chlo_wire = chlo.padded(1200).encode()
    secrets.chlo_wire = chlo_wire
    ik, nonc = identity.validate_full_chlo(chlo.padded(1200), chlo_wire,
                                           source_ip, cid=77, now=now)
    return ik, nonc, secrets, scfg


def test_honest_run_ik_byte_identical(identity):
    ik_server, _, secrets, scfg = _accepted_chlo(identity)
    ik_client = derive_ik_client(secrets, scfg, cid=77)
    assert ik_client == ik_server


def test_replayed_chlo_rejected(identity):
    _accepted_chlo(identity, rng_seed=2)
    with pytest.raises(HandshakeError) as e:
        _accepted_chlo(identity, rng_seed=2)  # identical nonce second time
    assert e.value.reason == "nonc_replayed"


def test_stk_ip_mismatch(identity):
    rej = build_rej(identity.scfg, identity.k_stk, "10.0.0.2", NOW, Random(1))
    scfg, stk = parse_rej(rej)
    chlo, _ = build_full_chlo(scfg, stk, NOW, Random(2))
    padded = chlo.padded(1200)
    with pytest.raises(HandshakeError) as e:
        identity.validate_full_chlo(padded, padded.encode(), "10.0.0.9", 77, NOW)
    assert e.value.reason == "stk_ip_mismatch"


def test_stk_invalid(identity):
    def mutate(chlo):
        chlo.fields[wire.TAG_STK] = b"\x00" * 36
    with pytest.raises(HandshakeError) as e:
        _accepted_chlo(identity, mutate=mutate)
    assert e.value.reason == "stk_invalid"


def test_stk_stale(identity):
    rej = build_rej(identity.scfg, identity.k_stk, "10.0.0.2", NOW, Random(1))
    scfg, stk = parse_rej(rej)
    later = NOW + identity.stk_validity_s + 10
    chlo, _ = build_full_chlo(scfg, stk, later, Random(2))
    padded = chlo.padded(1200)
    with pytest.raises(HandshakeError) as e:
        identity.validate_full_chlo(padded, padded.encode(), "10.0.0.2", 77, later)
    assert e.value.reason == "stk_stale"


def test_nonc_out_of_window_guard(identity):
    def mutate(chlo):
        stale = make_nonc(NOW - 9999, Random(9))
        chlo.fields[wire.TAG_NONC] = stale
    with pytest.raises(HandshakeError) as e:
        _accepted_chlo(identity, mutate=mutate)
    assert e.value.reason == "nonc_out_of_window"


def test_scid_unknown(identity):
    def mutate(chlo):
        chlo.fields[wire.TAG_SCID] = b"\xab" * 32
    with pytest.raises(HandshakeError) as e:
        _accepted_chlo(identity, mutate=mutate)
    assert e.value.reason == "scid_unknown"


def test_scid_expired_after_rotation(identity):
    rej = build_rej(identity.scfg, identity.k_stk, "10.0.0.2", NOW, Random(1))
    scfg, stk = parse_rej(rej)
    chlo, _ = build_full_chlo(scfg, stk, NOW, Random(2))
    identity.rotate_scfg(NOW + 5, Random(50))
    padded = chlo.padded(1200)
    with pytest.raises(HandshakeError) as e:
        identity.validate_full_chlo(padded, padded.encode(), "10.0.0.2", 77, NOW + 6)
    assert e.value.reason == "scid_expired"


def test_group_mismatch(identity):
    def mutate(chlo):
        pubc = bytearray(chlo.fields[wire.TAG_PUBC])
        pubc[0] = 0x02  # claim the test group
        chlo.fields[wire.TAG_PUBC] = bytes(pubc)
    with pytest.raises(HandshakeError) as e:
        _accepted_chlo(identity, mutate=mutate)
    assert e.value.reason == "group_mismatch"


# ---------------------------------------------------------------------------
# Key settlement
# ---------------------------------------------------------------------------


def test_forward_secure_keys_agree_and_differ_from_ik(identity):
    ik_server, nonc, secrets, scfg = _accepted_chlo(identity)
    shlo, ephemeral = identity.build_shlo("10.0.0.2", NOW, Random(7))
    inner = shlo.encode()
    client_pub = secrets.dh.public
    k_server = identity.derive_k_server(ephemeral, client_pub, nonc, 77,
                                        secrets.chlo_wire, inner)
    pubs = shlo.fields[wire.TAG_PUBS]
    k_client = derive_k_client(secrets, scfg, 77, inner, pubs[1:])
    assert k_client == k_server
    assert k_client != ik_server


def test_shlo_carries_fresh_token(identity):
    shlo, _ = identity.build_shlo("10.0.0.2", NOW, Random(7))
    stk = shlo.fields[wire.TAG_STK]
    assert open_stk(identity.k_stk, stk) == ("10.0.0.2", int(NOW))


def test_ik_transcript_binds_chlo_and_scfg(identity):
    cfg = identity.scfg
    assert ik_transcript(b"chlo-bytes", cfg) == b"chlo-bytes" + cfg.serialize_pub()


def test_signature_label_is_shared_constant(identity):
    # One canonical label on both the signing and verification path: a config
    # signed by get_scfg always verifies through check_scfg.
    pair = kg(128, Random(8))
    cfg = get_scfg(pair.sk, NOW, rng=Random(9))
    check_scfg(cfg, pair.pk, NOW)
