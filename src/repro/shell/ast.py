"""AST node types for the mini POSIX shell.

The grammar covers what container build RUN instructions actually use (see
the paper's Figures 8-11): simple commands with quoting and globs, variable
expansion, ``;`` lists, ``&&``/``||``, ``!``, pipelines, redirections,
``if``/``then``/``elif``/``else``/``fi``, and ``set -ex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "Segment",
    "Word",
    "Redirect",
    "SimpleCommand",
    "Pipeline",
    "AndOr",
    "CommandList",
    "IfClause",
    "Command",
]


@dataclass(frozen=True)
class Segment:
    """A run of characters with uniform quoting.

    ``quote`` is "'" (no expansion), '"' (variable expansion, no globbing),
    or "" (expansion + globbing).
    """

    text: str
    quote: str = ""


@dataclass(frozen=True)
class Word:
    """One shell word: a concatenation of segments."""

    segments: tuple[Segment, ...]

    def raw(self) -> str:
        """The word's text with quoting removed (pre-expansion)."""
        return "".join(s.text for s in self.segments)


@dataclass(frozen=True)
class Redirect:
    """fd redirection: op in ('>', '>>', '<', '2>', '2>>', '2>&1')."""

    op: str
    target: Optional[Word]  # None for 2>&1


@dataclass(frozen=True)
class SimpleCommand:
    assignments: tuple[tuple[str, Word], ...]
    words: tuple[Word, ...]
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class Pipeline:
    commands: tuple["Command", ...]
    negated: bool = False


@dataclass(frozen=True)
class AndOr:
    """pipeline (('&&'|'||') pipeline)*; ops[i] joins items[i] and items[i+1]."""

    items: tuple[Pipeline, ...]
    ops: tuple[str, ...]


@dataclass(frozen=True)
class CommandList:
    """Statements separated by ';' or newline."""

    items: tuple[AndOr, ...]


@dataclass(frozen=True)
class IfClause:
    """if cond; then body; [elif ...;] [else ...;] fi"""

    conditions: tuple[CommandList, ...]  # one per if/elif
    bodies: tuple[CommandList, ...]  # matching then-bodies
    else_body: Optional[CommandList] = None


Command = Union[SimpleCommand, IfClause]
