import gc
import weakref
from random import Random

import pytest

from quicmq import crypto, wire
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.crypto import sha256, ver
from quicmq.handshake import (
    NONC_LEN,
    SCFG_LIFETIME_S,
    STK_VALIDITY_S,
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
from quicmq.netsim import SimConfig, SimNetwork

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


def test_one_seed_signs_one_config():
    # RFC 6979 nonces: a seeded identity, and every REJ that carries its
    # config, repeat byte for byte.
    a = ServerIdentity.create(1000.0, Random(42))
    b = ServerIdentity.create(1000.0, Random(42))
    assert a.scfg.prof == b.scfg.prof
    assert ver(a.sign_pair.pk, signed_blob(a.scfg.scid, a.scfg.pub_bytes(), a.scfg.expy),
               a.scfg.prof)


def test_scid_is_hash_of_public_and_expiry(identity):
    cfg = identity.scfg
    assert cfg.scid == sha256(cfg.pub_bytes() + cfg.expy.to_bytes(4, "big"))


def test_check_scfg_accepts_fresh(identity):
    check_scfg(identity.scfg, identity.sign_pair.pk, NOW + 10)


def test_check_scfg_rejects_expired(identity):
    cfg = get_scfg(identity.sign_pair.sk, NOW, rng=Random(1))
    with pytest.raises(HandshakeError) as e:
        check_scfg(cfg, identity.sign_pair.pk, NOW + SCFG_LIFETIME_S + 1)
    assert e.value.reason == "scfg_expired"


def test_check_scfg_rejects_tampered_signature(identity):
    cfg = identity.scfg
    bad = ServerConfig(cfg.scid, cfg.public, cfg.expy,
                       cfg.div_nonce, cfg.prof[:-1] + bytes([cfg.prof[-1] ^ 1]))
    with pytest.raises(HandshakeError) as e:
        check_scfg(bad, identity.sign_pair.pk, NOW)
    assert e.value.reason == "scfg_bad_signature"


def test_check_scfg_rejects_wrong_scid(identity):
    cfg = identity.scfg
    bad = ServerConfig(b"\x00" * 32, cfg.public, cfg.expy,
                       cfg.div_nonce, cfg.prof)
    with pytest.raises(HandshakeError) as e:
        check_scfg(bad, identity.sign_pair.pk, NOW)
    assert e.value.reason == "scfg_bad_scid"


def test_repeat_check_of_one_config_is_a_cache_hit(identity):
    check_scfg(identity.scfg, identity.sign_pair.pk, NOW)
    before = crypto._verify.cache_info()
    check_scfg(identity.scfg, identity.sign_pair.pk, NOW)
    after = crypto._verify.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


def test_cached_config_is_still_checked_for_signature_expiry_and_scid(identity):
    # Only the signature result is reused: a changed signature is verified
    # afresh, and the scid and the expiry are checked on every call.
    cfg = identity.scfg
    check_scfg(cfg, identity.sign_pair.pk, NOW)
    flipped = ServerConfig(cfg.scid, cfg.public, cfg.expy,
                           cfg.div_nonce, cfg.prof[:-1] + bytes([cfg.prof[-1] ^ 1]))
    other_scid = ServerConfig(b"\x00" * 32, cfg.public, cfg.expy, cfg.div_nonce, cfg.prof)
    for bad, now, reason in ((flipped, NOW, "scfg_bad_signature"),
                             (cfg, cfg.expy, "scfg_expired"),
                             (other_scid, NOW, "scfg_bad_scid")):
        with pytest.raises(HandshakeError) as e:
            check_scfg(bad, identity.sign_pair.pk, now)
        assert e.value.reason == reason
    check_scfg(cfg, identity.sign_pair.pk, NOW)


def test_second_1rtt_client_to_one_broker_reuses_the_verified_config():
    net = SimNetwork(SimConfig(delay_ms=1.0), seed=7)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    broker = ("10.0.0.1", 4433)
    ServerAgent(net, broker, identity, rng=Random(11))

    def connect(port):
        client = ClientAgent(net, ("10.0.0.2", port), broker, f"dev-{port}",
                             identity.sign_pair.pk, rng=Random(port))
        assert client.connect_mqtt() == "1rtt"
        net.run(until_s=net.clock.now_s + 1.0)
        assert client.connected
        client.disconnect()

    connect(50000)
    before = crypto._verify.cache_info()
    connect(50001)
    after = crypto._verify.cache_info()
    assert after.hits > before.hits and after.misses == before.misses


def test_scfg_pub_serialization_roundtrip(identity):
    cfg = identity.scfg
    parsed = ServerConfig.parse_pub(cfg.serialize_pub(), cfg.prof)
    assert parsed.scid == cfg.scid
    assert parsed.public == cfg.public
    assert parsed.expy == cfg.expy
    assert parsed.div_nonce == cfg.div_nonce
    assert parsed.dh is None


def test_scfg_repr_hides_the_config_secret(identity):
    text = repr(identity.scfg)
    secret = identity.scfg.dh.secret
    assert repr(secret) not in text and secret.hex() not in text
    assert "dh=" not in text


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
    strike = StrikeRegister()
    nonc = make_nonc(NOW, Random(1))
    strike.check(nonc, NOW)
    strike.record(nonc, NOW)
    with pytest.raises(HandshakeError) as e:
        strike.check(nonc, NOW)
    assert e.value.reason == "nonc_replayed"


def test_strike_forgets_a_nonce_once_out_of_the_window():
    strike = StrikeRegister()
    old = make_nonc(NOW, Random(1))
    strike.record(old, NOW)
    strike.record(make_nonc(NOW + 300, Random(2)), NOW + 300)
    assert old in strike.seen  # 300 s behind is still inside the window
    with pytest.raises(HandshakeError) as e:
        strike.check(old, NOW + 300)
    assert e.value.reason == "nonc_replayed"
    strike.record(make_nonc(NOW + 301, Random(3)), NOW + 301)
    assert old not in strike.seen and len(strike.seen) == 2
    with pytest.raises(HandshakeError) as e:
        strike.check(old, NOW + 301)
    assert e.value.reason == "nonc_out_of_window"


def test_strike_rejects_out_of_window():
    strike = StrikeRegister()
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
    ik, nonc, client_pub = identity.validate_full_chlo(chlo.padded(1200), chlo_wire,
                                                       source_ip, cid=77, now=now)
    assert client_pub == secrets.dh.public
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
    later = NOW + STK_VALIDITY_S + 10
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


def test_a_rotated_out_config_keeps_only_its_scid(identity):
    # Only the old scid is read once it is rotated out, so the config's DH
    # private key is freed, and a CHLO naming that scid is still told it
    # expired.
    rej = build_rej(identity.scfg, identity.k_stk, "10.0.0.2", NOW, Random(1))
    scfg, stk = parse_rej(rej)
    chlo, _ = build_full_chlo(scfg, stk, NOW, Random(2))
    old_dh = weakref.ref(identity.scfg.dh)
    identity.rotate_scfg(NOW + 5, Random(50))
    gc.collect()
    assert old_dh() is None
    assert identity.retired == {scfg.scid}
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


def test_full_chlos_reuse_the_config_key(identity, key_builds):
    # Each CHLO builds its client's ephemeral key; the server's DH runs on
    # the config's key, built once with the config.
    hellos = [_accepted_chlo(identity, rng_seed=seed)[2] for seed in (2, 3)]
    assert key_builds == [h.dh.secret for h in hellos]


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
    pair = kg(Random(8))
    cfg = get_scfg(pair.sk, NOW, rng=Random(9))
    check_scfg(cfg, pair.pk, NOW)
