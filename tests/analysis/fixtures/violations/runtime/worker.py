"""Dispatches ``MutableNote`` (so only PROT002 fires on it), never
``FetchRequest`` (so pool.py's send of it is PROT004)."""

from .mailbox import MutableNote


def handle(message):
    if isinstance(message, MutableNote):
        return message.text
    return None
