"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from WadroidError so callers can
distinguish tool failures from programming bugs.
"""


class WadroidError(Exception):
    """Base class for all toolkit errors."""


def os_reason(exc: OSError) -> str:
    """What ``exc`` says went wrong, without the file name it carries."""
    return f"[Errno {exc.errno}] {exc.strerror}" if exc.strerror else str(exc)


class MalformedJid(WadroidError):
    """A WhatsApp identifier string matches no known jid pattern."""


class MalformedGroupId(MalformedJid):
    """A group identifier lacks the creator/epoch structure."""


class MalformedKey(WadroidError):
    """A message key is not `[%~]<epoch>-<sequence>`."""


class NotSqlite(WadroidError):
    """File does not start with the SQLite magic header."""


class MissingTable(WadroidError):
    """A required table is absent from an evidence database."""


class UnreadableFile(WadroidError):
    """An evidence file cannot be opened or read."""


class CorruptDatabase(WadroidError):
    """SQLite reports an evidence database as damaged while reading it."""


class BadBlockLength(WadroidError):
    """Ciphertext/plaintext length is not a whole number of AES blocks."""


class MagicMismatch(WadroidError):
    """Decrypted backup does not look like a SQLite database."""


class BadGrammar(WadroidError):
    """A log grammar file is structurally invalid."""


class InvalidScript(WadroidError):
    """A forge scenario script violates its own preconditions."""


class StructuralError(WadroidError):
    """The evidence directory is unusable (maps to CLI exit code 2)."""
