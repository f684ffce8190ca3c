"""Acceptance suite: one test per release criterion, strictest settings.

Each test prints a PASS line once its criterion holds, so a verbose run
doubles as the acceptance checklist.
"""

import hashlib
import random
import time

import pytest

import helpers
from helpers import (
    enumerate_block_outcomes,
    expected_analytics_dict,
    jid,
    observed_analytics,
    valid_block_scripts,
)
from wadroid import forge, ingest
from wadroid.backup_crypto import (
    SQLITE_MAGIC,
    decrypt_backup,
    encrypt_fixture,
)
from wadroid.cli import EXIT_OK, run
from wadroid.correlator import (
    StateCode,
    block_statuses,
    correlate_media,
    group_membership_timeline,
    message_state,
    reconstruct_history,
    resolve_partners,
)
from wadroid.db_reader import load_messages, open_source
from wadroid.errors import MagicMismatch
from wadroid.model import (
    parse_group_id,
    parse_jid,
    parse_message_key,
)
from wadroid.report import content_json
from test_correlator import make_record


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def test_acceptance_1_state_codebook():
    """Exhaustive (direction, status) mapping, zero tolerance."""
    started = time.time()
    expectations = {
        (True, 0): StateCode.PENDING_LOCAL,
        (True, 4): StateCode.ON_SERVER,
        (True, 5): StateCode.DELIVERED_TO_DEVICE,
        (True, 6): StateCode.CONTROL,
        (False, 6): StateCode.CONTROL,
        (False, 0): StateCode.RECEIVED_INCOMING,
    }
    for from_me in (True, False):
        for status in range(0, 10):
            state = message_state(make_record(from_me=from_me, status_code=status))
            expected = expectations.get((from_me, status), StateCode.UNKNOWN)
            assert state.code is expected, (from_me, status, state.code)
            if expected is StateCode.UNKNOWN:
                assert state.label() == f"UnknownStatus({status})"
    assert time.time() - started < 1.0
    _ok(1, "state code-book fidelity")


def test_acceptance_2_reference_scenario_replay(tmp_path):
    """The four reference captures replay to their exact timelines."""
    started = time.time()

    # two message/reply rounds
    bundle = ingest.load_case_bundle(
        forge.generate_bundle(helpers.conversation_script(), tmp_path / "conv").root
    )
    entries = reconstruct_history(bundle)[jid(helpers.PARTNER)]
    records = [e.record for e in entries]
    assert [(content_json(r)["text"], r.direction, r.effective_time) for r in records[:2]] == [
        ("Message 1", "incoming", 1329116349000),  # 2012-02-13 06:59:09Z
        ("Reply 1", "outgoing", 1329116423000),  # 2012-02-13 07:00:23Z
    ]
    texts = [content_json(r)["text"] for r in records]
    assert texts == ["Message 1", "Reply 1", "Message 2", "Reply 2"]

    # delivery progression with minute-scale ack delays
    bundle = ingest.load_case_bundle(
        forge.generate_bundle(helpers.delivery_script(), tmp_path / "state").root
    )
    state = message_state(bundle.messages[0])
    assert state.code is StateCode.DELIVERED_TO_DEVICE
    assert state.sent_at == 1381932937884  # 14:15:37.884Z
    assert state.server_ack_at == 1381933025551  # 14:17:05.551Z
    assert state.device_ack_at == 1381933319135  # 14:21:59.135Z

    # three-recipient broadcast fan-out
    bundle = ingest.load_case_bundle(
        forge.generate_bundle(helpers.broadcast_script(), tmp_path / "bcast").root
    )
    broadcasts = resolve_partners(bundle)
    assert len(broadcasts) == 1
    broadcast = broadcasts[0]
    assert broadcast.destinations == frozenset(
        {jid(helpers.BC_R1), jid(helpers.BC_R2), jid(helpers.BC_R3)}
    )
    assert broadcast.recipient_count == 3
    assert broadcast.self_record_id is not None
    assert all(m.needs_push == 2 for m in bundle.messages)

    # group lifecycle: create, joins, leaves
    bundle = ingest.load_case_bundle(
        forge.generate_bundle(helpers.group_script(), tmp_path / "group").root
    )
    timeline = group_membership_timeline(bundle)[0]
    assert [(e.at_ms, e.kind.value, e.member_raw) for e in timeline.events] == [
        (1384187045000, "created", jid(helpers.USER_D)),  # Nov 11 16:24:05Z
        (1384187045500, "joined", jid(helpers.USER_E)),
        (1384252848000, "joined", jid(helpers.USER_F)),  # Nov 12 10:40:48Z
        (1384467096000, "left", jid(helpers.USER_F)),  # Nov 14 22:11:36Z
        (1384508994000, "left", jid(helpers.USER_E)),  # Nov 15 09:49:54Z
    ]
    assert timeline.group_name == "wa test group"
    assert timeline.membership_at(1384344000000) == frozenset(
        {jid(helpers.USER_D), jid(helpers.USER_E), jid(helpers.USER_F)}
    )

    elapsed = time.time() - started
    assert elapsed < 5.0, f"replay took {elapsed:.2f}s"
    _ok(2, "reference scenario replay")


def test_acceptance_3_oracle_equivalence(tmp_path):
    """100 randomized scenarios: pipeline output equals forge ground truth."""
    started = time.time()
    for seed in range(100):
        script = forge.random_script(seed=seed, max_actions=200)
        assert len(script.actions) <= 200
        result = forge.generate_bundle(script, tmp_path / f"s{seed}")
        parsed = ingest.load_case_bundle(result.root)
        assert parsed == result.bundle, f"seed {seed}: parse differs from ground truth"
        observed = observed_analytics(parsed)
        expected = expected_analytics_dict(result.expected)
        for family in (
            "histories",
            "broadcasts",
            "group_timelines",
            "deleted_messages",
            "deleted_contacts",
            "addition_times",
        ):
            assert observed[family] == expected[family], f"seed {seed}: {family} mismatch"
    elapsed = time.time() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _ok(3, f"oracle equivalence over 100 scenarios ({elapsed:.1f}s)")


def test_acceptance_4_block_status_exhaustive():
    """Every block/unblock script up to length 6 over 3 contacts matches the
    brute-force consistent-history oracle."""
    contacts = [
        "393200000001@s.whatsapp.net",
        "393200000002@s.whatsapp.net",
        "393200000003@s.whatsapp.net",
    ]
    checked = 0
    unknown_seen = False
    for script in valid_block_scripts(contacts, max_len=6):
        if not script:
            continue
        blocks, unblocks, t = [], [], 0
        for event in script:
            t += 1000
            if event[0] == "block":
                blocks.append((parse_jid(event[1]), t))
            else:
                unblocks.append(t)
        reported = {
            raw: status for raw, (status, _) in block_statuses(blocks, unblocks).items()
        }
        oracle = enumerate_block_outcomes(script)
        assert reported == oracle, f"script {script}: {reported} != {oracle}"
        unknown_seen = unknown_seen or "unknown" in oracle.values()
        checked += 1
    assert checked == 552  # all valid non-empty scripts of length <= 6
    assert unknown_seen, "the ambiguity outcome must be exercised"
    # the canonical ambiguity: two blocked, one cumulative unblock
    two_then_unblock = [("block", contacts[0]), ("block", contacts[1]), ("unblock",)]
    assert enumerate_block_outcomes(two_then_unblock) == {
        contacts[0]: "unknown",
        contacts[1]: "unknown",
    }
    _ok(4, f"block-status exhaustion over {checked} scripts")


def test_acceptance_5_crypto_roundtrip(tmp_path):
    """1,000 random round-trips; forged backup loads cleanly; wrong key fails."""
    rng = random.Random(19)
    roundtrip = tmp_path / "roundtrip.crypt"
    for _ in range(1000):
        plaintext = SQLITE_MAGIC + rng.randbytes(16 * rng.randrange(0, 8))
        assert helpers.decrypt_file(roundtrip, encrypt_fixture(plaintext)) == plaintext

    base = 1380000000000
    script = forge.ScenarioScript(
        owner=helpers.OWNER,
        actors=(helpers.OWNER, helpers.PARTNER),
        actions=(
            forge.SendText(at_ms=base, sender=helpers.OWNER, to=helpers.PARTNER, text="x"),
            forge.SnapshotBackup(at_ms=base + 60_000),
        ),
    )
    result = forge.generate_bundle(script, tmp_path / "evidence")
    crypt = next((result.root / "mnt/sdcard/WhatsApp/Databases").glob("*.crypt"))
    plain_path = tmp_path / "restored.db"
    plain_path.write_bytes(decrypt_backup(crypt))
    warn = []
    records = load_messages(open_source(plain_path), warn)
    assert len(records) == 1
    assert len(warn) == 0

    for _ in range(25):
        wrong = rng.randbytes(24)
        with pytest.raises(MagicMismatch):
            decrypt_backup(crypt, wrong)
    _ok(5, "crypto round-trip and wrong-key detection")


def test_acceptance_6_media_correlation(tmp_path):
    """Shared file correlates at full confidence; a one-byte change demotes."""
    content = bytes(range(256)) * 3
    server_name = "0011aabbccdd.jpg"

    def bundle_for(owner, other, payload, where):
        script = forge.ScenarioScript(
            owner=owner,
            actors=(owner, other),
            actions=(
                forge.SendMedia(
                    at_ms=1382349000000,
                    sender=helpers.OWNER,
                    to=helpers.PARTNER,
                    media_kind="image",
                    content=payload,
                    server_filename=server_name,
                ),
            ),
        )
        return ingest.load_case_bundle(forge.generate_bundle(script, tmp_path / where).root)

    sender = bundle_for(helpers.OWNER, helpers.PARTNER, content, "sender")
    recipient = bundle_for(helpers.PARTNER, helpers.OWNER, content, "recipient")
    findings = correlate_media(sender.messages, recipient.messages, recipient.media_inventory)
    full = [f for f in findings if f.payload.get("match") == "full"]
    assert len(full) == 1
    assert full[0].payload["server_filename"] == server_name

    perturbed = bytearray(content)
    perturbed[100] ^= 0x01
    recipient2 = bundle_for(helpers.PARTNER, helpers.OWNER, bytes(perturbed), "recipient2")
    findings2 = correlate_media(
        sender.messages, recipient2.messages, recipient2.media_inventory
    )
    matches = [f.payload.get("match") for f in findings2 if f.payload.get("match") != "local-file"]
    assert matches == ["name-only"]
    _ok(6, "media correlation and demotion")


def test_acceptance_7_identifier_roundtrips():
    """10,000 random instances of each identifier grammar round-trip."""
    rng = random.Random(77)
    for _ in range(10_000):
        phone = "".join(rng.choice("0123456789") for _ in range(rng.randrange(7, 14)))
        user_raw = f"{phone}@s.whatsapp.net"
        assert parse_jid(user_raw).rebuild() == user_raw

        epoch = rng.randrange(1230768000, 2000000000)
        gid_raw = f"{phone}-{epoch}@g.us"
        gid = parse_group_id(gid_raw)
        assert gid.rebuild() == gid_raw
        assert gid.creator.phone_number == phone
        assert gid.creation_time == epoch

        prefix = "%~" if rng.random() < 0.5 else ""
        key_raw = f"{prefix}{rng.randrange(1, 2_000_000_000)}-{rng.randrange(0, 1_000_000)}"
        key = parse_message_key(key_raw)
        assert key.rebuild() == key_raw
        assert key.broadcast_received == bool(prefix)
    _ok(7, "identifier grammar round-trips (30k instances)")


def test_acceptance_8_readonly_soundness(tmp_path):
    """A full report run leaves every evidence file byte-identical."""
    script = forge.random_script(seed=4242, max_actions=120)
    result = forge.generate_bundle(script, tmp_path / "evidence")

    def tree_digest(root):
        return {
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    before = tree_digest(result.root)
    out = tmp_path / "report.json"
    code = run(
        [
            "report",
            "--in",
            str(result.root),
            "--out",
            str(out),
            "--tz",
            "+01:00",
            "--verify-readonly",
            "--sim",
            script.owner,
        ]
    )
    assert code in (EXIT_OK, 1)
    assert out.exists()
    after = tree_digest(result.root)
    assert before == after
    _ok(8, f"read-only soundness over {len(before)} evidence files")
