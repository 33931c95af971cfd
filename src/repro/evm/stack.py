"""The EVM's 256-bit word stack (max depth 1024)."""

from __future__ import annotations

from typing import List

__all__ = ["Stack", "StackError", "WORD_MASK", "MAX_STACK_DEPTH"]

WORD_MASK = 2**256 - 1
MAX_STACK_DEPTH = 1024


class StackError(Exception):
    """Stack underflow or overflow — both abort execution."""


class Stack:
    """A bounded LIFO of 256-bit unsigned words."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[int] = []

    def push(self, value: int) -> None:
        if len(self._items) >= MAX_STACK_DEPTH:
            raise StackError("stack overflow (depth 1024)")
        self._items.append(value & WORD_MASK)

    def pop(self) -> int:
        if not self._items:
            raise StackError("stack underflow")
        return self._items.pop()

    def peek(self, depth: int = 0) -> int:
        """Read the item ``depth`` positions below the top without popping."""
        if depth >= len(self._items):
            raise StackError("stack underflow on peek")
        return self._items[-1 - depth]

    def dup(self, position: int) -> None:
        """DUPn: copy the ``position``-th item (1-based) to the top."""
        if position < 1 or position > len(self._items):
            raise StackError(f"DUP{position} underflow")
        self.push(self._items[-position])

    def swap(self, position: int) -> None:
        """SWAPn: exchange the top with the item ``position`` below it."""
        if position < 1 or len(self._items) < position + 1:
            raise StackError(f"SWAP{position} underflow")
        self._items[-1], self._items[-1 - position] = (
            self._items[-1 - position],
            self._items[-1],
        )

    def __len__(self) -> int:
        return len(self._items)
