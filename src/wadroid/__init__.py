"""Forensic toolkit for the artifacts a popular Android messenger leaves on a device."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BadBlockLength,
    BadGrammar,
    InvalidScript,
    MagicMismatch,
    MalformedGroupId,
    MalformedJid,
    MalformedKey,
    MissingTable,
    NotSqlite,
    StructuralError,
    UnreadableFile,
    WadroidError,
)
from .model import (  # noqa: F401
    CaseBundle,
    ChatListRecord,
    ContactRecord,
    EventKind,
    GroupId,
    JidKind,
    LogEvent,
    MessageKey,
    MessageRecord,
    WaJid,
    parse_group_id,
    parse_jid,
    parse_message_key,
)
