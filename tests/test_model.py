"""Identifier grammars and timestamp rendering."""

import random

import pytest

from wadroid.errors import MalformedGroupId, MalformedJid, MalformedKey
from wadroid.model import (
    JidKind,
    WarningLog,
    classify_jid,
    format_tz_offset,
    parse_group_id,
    parse_jid,
    parse_message_key,
    parse_tz_offset,
    render_epoch_ms,
)


def test_user_jid():
    jid = parse_jid("39348xxxxxxx@s.whatsapp.net")
    assert jid.kind is JidKind.USER
    assert jid.phone_number == "39348xxxxxxx"
    assert jid.rebuild() == "39348xxxxxxx@s.whatsapp.net"


def test_broadcast_jid():
    jid = parse_jid("broadcast")
    assert jid.kind is JidKind.BROADCAST
    assert jid.phone_number == ""


def test_empty_jid_is_malformed():
    with pytest.raises(MalformedJid):
        parse_jid("")


@pytest.mark.parametrize("raw", ["hello", "@s.whatsapp.net", "x39@s.whatsapp.net", "39@g.us"])
def test_malformed_jids(raw):
    with pytest.raises(MalformedJid):
        parse_jid(raw)


def test_classify_jid_keeps_malformed_records():
    warn = WarningLog()
    jid = classify_jid("not-a-jid", warn, "wa.db:wa_contacts#1")
    assert jid.kind is JidKind.OTHER
    assert jid.raw == "not-a-jid"
    assert len(warn) == 1


def test_group_id():
    gid = parse_group_id("3933xxxxxxx-1363078943@g.us")
    assert gid.creator.phone_number == "3933xxxxxxx"
    assert gid.creation_time == 1363078943


def test_group_id_epoch_zero():
    gid = parse_group_id("1-0@g.us")
    assert gid.creator.phone_number == "1"
    assert gid.creation_time == 0


def test_group_id_missing_epoch():
    with pytest.raises(MalformedGroupId):
        parse_group_id("abc@g.us")


def test_group_id_epoch_too_long_to_convert_is_kept_and_warned():
    raw = "1-" + "9" * 5000 + "@g.us"  # more digits than CPython converts to int
    with pytest.raises(MalformedGroupId):
        parse_group_id(raw)
    warn = WarningLog()
    jid = classify_jid(raw, warn, "whatsapp.log:1")
    assert (jid.raw, jid.kind) == (raw, JidKind.OTHER)
    assert [w.source for w in warn] == ["whatsapp.log:1"]


def test_jid_parse_delegates_group():
    jid = parse_jid("3933xxxxxxx-1363078943@g.us")
    assert jid.kind is JidKind.GROUP
    assert jid.phone_number == "3933xxxxxxx"
    with pytest.raises(MalformedJid):
        parse_jid("abc@g.us")


def test_message_key():
    key = parse_message_key("1363253484-1")
    assert (key.session_start, key.sequence, key.broadcast_received) == (1363253484, 1, False)


def test_message_key_broadcast_prefix():
    plain = parse_message_key("1363253484-1")
    prefixed = parse_message_key("%~1363253484-1")
    assert prefixed.broadcast_received
    assert (prefixed.session_start, prefixed.sequence) == (plain.session_start, plain.sequence)


@pytest.mark.parametrize("raw", ["x-y", "", "123", "12-34-56x", "%~x-1"])
def test_malformed_keys(raw):
    with pytest.raises(MalformedKey):
        parse_message_key(raw)
    with pytest.raises(MalformedKey):  # a failed parse is not kept
        parse_message_key(raw)


def test_parses_are_kept_but_malformed_input_warns_every_time():
    assert parse_message_key("1363253484-7") is parse_message_key("1363253484-7")
    user = "393480000077@s.whatsapp.net"
    assert classify_jid(user) is classify_jid(user)
    warn = WarningLog()
    for n in range(3):
        classify_jid("not-a-jid", warn, f"wa.db:wa_contacts#{n}")
    assert [w.source for w in warn] == [f"wa.db:wa_contacts#{n}" for n in range(3)]


def test_render_epoch_offsets():
    assert render_epoch_ms(1381932937884, 0) == "2013-10-16 14:15:37.884 +00:00"
    assert render_epoch_ms(1381932937884, 120) == "2013-10-16 16:15:37.884 +02:00"
    assert render_epoch_ms(1381932937884, -330) == "2013-10-16 08:45:37.884 -05:30"
    assert render_epoch_ms(None, 0) is None


def test_tz_offset_parsing():
    assert parse_tz_offset("+01:00") == 60
    assert parse_tz_offset("-05:30") == -330
    assert parse_tz_offset("Z") == 0
    assert format_tz_offset(-330) == "-05:30"
    with pytest.raises(ValueError):
        parse_tz_offset("1:00")


def _random_user(rng):
    return "".join(rng.choice("0123456789") for _ in range(rng.randrange(8, 14)))


@pytest.mark.parametrize("text, minutes", [("+23:59", 1439), ("-00:30", -30), ("Z", 0)])
def test_tz_offset_in_range(text, minutes):
    assert parse_tz_offset(text) == minutes


@pytest.mark.parametrize("text", ["+24:00", "+00:60", "+00:75"])
def test_tz_offset_out_of_range(text):
    with pytest.raises(ValueError, match="bad timezone offset"):
        parse_tz_offset(text)


def test_roundtrip_properties():
    rng = random.Random(20130312)
    for _ in range(1000):
        phone = _random_user(rng)
        raw = f"{phone}@s.whatsapp.net"
        assert parse_jid(raw).rebuild() == raw

        epoch = rng.randrange(1230768000, 1999999999)
        gid_raw = f"{phone}-{epoch}@g.us"
        gid = parse_group_id(gid_raw)
        assert gid.rebuild() == gid_raw
        assert parse_jid(gid_raw).kind is JidKind.GROUP

        prefix = "%~" if rng.random() < 0.5 else ""
        key_raw = f"{prefix}{rng.randrange(1, 2_000_000_000)}-{rng.randrange(0, 100000)}"
        key = parse_message_key(key_raw)
        assert key.rebuild() == key_raw
        assert key.broadcast_received == bool(prefix)
