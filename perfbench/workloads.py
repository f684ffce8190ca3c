"""Scenario scripts for the benchmark workloads.

Every workload turns a seed into one device's ``ScenarioScript``. The
seed changes the content of the device (numbers, texts, which messages
are deleted, file bytes) but not its size, so that runs with different
seeds cost the same and their timings can be compared.

The scripts are built only from ``random_script``, the forge's public
action dataclasses and ``ScenarioScript``; the forge itself is used
unchanged.

The workload that bypasses backups still takes one backup, of the chat
store before its first message: the backup path runs once, so its
layers read a measured time rather than a constant zero, while no backup
row is decoded.
"""

from __future__ import annotations

import random
from dataclasses import replace

from wadroid import forge
from wadroid.forge import (
    AddContact,
    AddToGroup,
    BlockContact,
    Broadcast,
    CreateGroup,
    DeleteContact,
    DeleteMessage,
    LeaveGroup,
    ScenarioScript,
    SendMedia,
    SendText,
    SnapshotBackup,
    UnblockAll,
)

# The forge acknowledges a delivered message this long after sending it;
# a message can only be deleted after its last delivery event.
_LAST_ACK_MS = forge.DEVICE_ACK_DELTA_MS
_START_MS = 1370073600000  # 2013-06-01, the era of the studied app version


def _numbers(rng: random.Random, count: int) -> list[str]:
    numbers: list[str] = []
    while len(numbers) < count:
        n = "39" + "".join(str(rng.randrange(10)) for _ in range(9))
        if n not in numbers:
            numbers.append(n)
    return numbers


def _pick(rng: random.Random, weighted: dict[str, float]) -> str:
    kinds = [k for k, w in weighted.items() if w > 0]
    return rng.choices(kinds, weights=[weighted[k] for k in kinds])[0]


# --- backup-history -----------------------------------------------------------

# random_script(seed, 1500) yields 750..1500 actions and, depending on
# how many snapshots the seed draws, from under 10k to over 30k backup
# rows. Backup rows set most of the cost of every command on this
# workload and the number of actions the rest, so the workload keeps
# random_script's actions up to the snapshot that brings the rows
# written across all backups into a narrow band around
# BACKUP_ROWS_TARGET, and skips derived script seeds for which that
# snapshot does not fall near action BACKUP_ACTIONS_TARGET. The actions
# themselves are random_script's, unchanged.
BACKUP_MAX_ACTIONS = 1500
BACKUP_ROWS_TARGET = 12_000
BACKUP_ACTIONS_TARGET = 870
BACKUP_BAND = 0.02


def _cut_at_rows(script: ScenarioScript, low: float, high: float) -> int | None:
    """Length of the shortest prefix ending in a snapshot, with backup rows in [low, high].

    Mirrors the forge: every message action writes one row, an outgoing
    broadcast one per recipient plus one, and a snapshot copies every row
    not yet deleted.
    """
    rows_by_label: dict[str, int] = {}
    live = total = 0
    for index, action in enumerate(script.actions, start=1):
        if isinstance(action, SnapshotBackup):
            total += live
            if total > high:
                return None
            if total >= low:
                return index
        elif isinstance(action, DeleteMessage):
            live -= rows_by_label.pop(action.target)
        elif not isinstance(action, (AddContact, DeleteContact, BlockContact, UnblockAll)):
            rows = 1
            if isinstance(action, Broadcast) and action.sender == script.owner:
                rows = len(action.recipients) + 1
            live += rows
            if getattr(action, "label", None) is not None and not isinstance(action, CreateGroup):
                rows_by_label[action.label] = rows
    return None


def backup_history(seed: int, scale: float = 1.0) -> ScenarioScript:
    """A prefix of ``random_script`` holding BACKUP_ROWS_TARGET backup rows."""
    rows = BACKUP_ROWS_TARGET * scale * scale
    length = BACKUP_ACTIONS_TARGET * scale
    rows_band = max(BACKUP_BAND * rows, 100)
    rng = random.Random(seed)
    while True:
        script = forge.random_script(rng.getrandbits(32), max(40, int(BACKUP_MAX_ACTIONS * scale)))
        cut = _cut_at_rows(script, rows - rows_band, rows + rows_band)
        if cut is not None and abs(cut - length) <= max(BACKUP_BAND * length, 20):
            return replace(script, actions=script.actions[:cut])


# --- log-media, log phase ---------------------------------------------------------

LOG_CONTACTS = 60
LOG_ACTIONS = 3000
LOG_MAX_GROUPS = 6


def log_contacts(seed: int, scale: float = 1.0) -> ScenarioScript:
    """Many contacts, many log lines, many findings; no backup rows, no media.

    This is the first part of the log-media device.
    """
    rng = random.Random(seed)
    owner, *others = _numbers(rng, LOG_CONTACTS + 1)
    n_actions = max(40, int(LOG_ACTIONS * scale))
    t = _START_MS + rng.randrange(0, 30) * 86_400_000
    actions: list = [SnapshotBackup(at_ms=t)]  # the empty backup
    present: set[str] = set()
    blocked: set[str] = set()
    groups: dict[str, set[str]] = {}
    deletable: list[tuple[str, int]] = []  # (label, last delivery event ms)

    while len(actions) < n_actions:
        t += rng.randrange(10_000, 600_000)
        absent = [n for n in others if n not in present]
        unblocked = [n for n in others if n not in blocked]
        open_groups = [g for g, m in groups.items() if len(m) < len(others) + 1]
        chat_groups = [g for g, m in groups.items() if len(m) > 1]
        ready = [i for i, (_, final) in enumerate(deletable) if final < t]
        kind = _pick(
            rng,
            {
                "text": 40,
                "group_text": 12 if chat_groups else 0,
                "add_contact": 12 if absent else 0,
                "delete_contact": 4 if present else 0,
                "block": 3 if unblocked else 0,
                "unblock_all": 1.5 if blocked else 0,
                "create_group": 0.3 if len(groups) < LOG_MAX_GROUPS else 0,
                "add_to_group": 4 if open_groups else 0,
                "leave_group": 2 if chat_groups else 0,
                "delete_message": 12 if ready else 0,
            },
        )
        if kind == "add_contact":
            number = rng.choice(absent)
            actions.append(AddContact(at_ms=t, number=number))
            present.add(number)
        elif kind == "delete_contact":
            number = rng.choice(sorted(present))
            actions.append(DeleteContact(at_ms=t, number=number))
            present.discard(number)
        elif kind == "block":
            number = rng.choice(unblocked)
            actions.append(BlockContact(at_ms=t, number=number))
            blocked.add(number)
        elif kind == "unblock_all":
            actions.append(UnblockAll(at_ms=t))
            blocked.clear()
        elif kind == "create_group":
            label = f"g{len(groups) + 1}"
            actions.append(CreateGroup(at_ms=t, name=f"group {len(groups) + 1}", label=label))
            groups[label] = {owner}
        elif kind == "add_to_group":
            label = rng.choice(open_groups)
            member = rng.choice(sorted(set(others) - groups[label]))
            actions.append(AddToGroup(at_ms=t, group=label, member=member))
            groups[label].add(member)
        elif kind == "leave_group":
            label = rng.choice(chat_groups)
            member = rng.choice(sorted(groups[label] - {owner}))
            actions.append(LeaveGroup(at_ms=t, group=label, member=member))
            groups[label].discard(member)
        elif kind == "delete_message":
            label, _ = deletable.pop(rng.choice(ready))
            actions.append(DeleteMessage(at_ms=t, target=label))
        else:
            label = f"m{len(actions)}"
            if kind == "group_text":
                to = rng.choice(chat_groups)
                sender = owner if rng.random() < 0.5 else rng.choice(sorted(groups[to] - {owner}))
            else:
                other = rng.choice(others)
                sender, to = (owner, other) if rng.random() < 0.5 else (other, owner)
            delivery = rng.choices(("pending", "server", "delivered"), weights=(1, 2, 7))[0]
            actions.append(
                SendText(
                    at_ms=t,
                    sender=sender,
                    to=to,
                    text=f"message {label} {rng.getrandbits(40):010x}",
                    label=label,
                    delivery=delivery,
                )
            )
            deletable.append((label, t + _LAST_ACK_MS))
    return ScenarioScript(owner=owner, actors=(owner, *others), actions=tuple(actions), seed=seed)


# --- log-media, media phase -------------------------------------------------------

MEDIA_PARTNERS = 9
MEDIA_FILES = 1600
MEDIA_FORWARD_SHARE = 0.15  # outgoing files that re-send received content


def media_sizes(count: int) -> list[tuple[str, int]]:
    """The (kind, size) sequence of one device's media, the same for every seed.

    Many images of 10 to 120 KB, some audio of 50 to 300 KB, and one 10 MB
    video per 800 files: about 145 MB for 1,600 files. The order is
    fixed too, because the reader's peak memory depends on the order in
    which it meets large and small files.
    """
    n_video = count // 800
    n_audio = count // 8
    n_image = count - n_audio - n_video
    sizes = [("image", 10_000 + (i * 7_919) % 110_000) for i in range(n_image)]
    sizes += [("audio", 50_000 + (i * 104_729) % 250_000) for i in range(n_audio)]
    sizes += [("video", 10_000_000)] * n_video
    random.Random(count).shuffle(sizes)
    return sizes


def _media_actions(
    rng: random.Random, owner: str, partners: list[str], t: int, count: int
) -> list:
    """Media exchanges between the owner and ``partners``, after time ``t``.

    Files alternate between sent and received, and every tenth one is
    followed by a text, so the seed changes partners, times and bytes but
    not the layout of the media directories.
    """
    actions: list = []
    received: dict[str, list[tuple[bytes, str]]] = {}  # kind -> (content, server name)
    extensions = {"image": ".jpg", "audio": ".m4a", "video": ".mp4"}
    for index, (kind, size) in enumerate(media_sizes(count)):
        t += rng.randrange(10_000, 600_000)
        other = rng.choice(partners)
        outgoing = index % 2 == 0
        # Server names sort in sending order, so received files keep their
        # place in the media directory listing for every seed.
        name = f"{index:05d}{rng.getrandbits(40):010x}{extensions[kind]}"
        if outgoing and received.get(kind) and kind != "video" and rng.random() < MEDIA_FORWARD_SHARE:
            # Forwarding a received file keeps its content; re-uploading it
            # through the same server name yields a full match, a fresh
            # upload a hash-only match.
            content, received_name = rng.choice(received[kind])
            if rng.random() < 0.5:
                name = received_name
        else:
            content = rng.randbytes(size)
        actions.append(
            SendMedia(
                at_ms=t,
                sender=owner if outgoing else other,
                to=other if outgoing else owner,
                media_kind=kind,
                content=content,
                server_filename=name,
            )
        )
        if not outgoing:
            received.setdefault(kind, []).append((content, name))
        if index % 10 == 9:
            t += rng.randrange(10_000, 600_000)
            actions.append(SendText(at_ms=t, sender=other, to=owner, text=f"got it {t}"))
    return actions


# --- log-media -----------------------------------------------------------------------


def log_media(seed: int, scale: float = 1.0) -> ScenarioScript:
    """The log-heavy contacts device, then a media library shared with a few contacts."""
    script = log_contacts(seed, scale)
    media = _media_actions(
        random.Random(f"{seed}-media"),
        script.owner,
        list(script.actors[1 : 1 + MEDIA_PARTNERS]),
        script.actions[-1].at_ms,
        max(8, int(MEDIA_FILES * scale)),
    )
    return replace(script, actions=script.actions + tuple(media))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "backup-history": backup_history,
    "log-media": log_media,
}
