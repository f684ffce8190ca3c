"""Forensic toolkit for the artifacts a popular Android messenger leaves on a device."""

__version__ = "0.1.0"
