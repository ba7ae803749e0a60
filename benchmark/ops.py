"""Operations: one public library call each, with the check of its answer.

An operation's answer is recorded by the timed loop and judged afterwards
by ``check``, which returns None when the oracle accepts it and a reason
otherwise.  An operation whose expected outcome is a specific exception
succeeds only when the call raises exactly that exception.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Raised(NamedTuple):
    """A call's exception, kept as a comparable value."""

    type: type
    message: str


_UNSET = object()


class Op:
    """One public call.  ``name`` is ``<module>.<function>``; ``counts``
    holds the work counts the traced run sums (input letters, enumerated
    words, ...).  ``prepare``, when given, computes the arguments from
    earlier operations' answers just before the call, outside its timing.
    ``allow`` names an exception family that labels an answer as not
    exact, which the operation may raise instead of answering.
    A ``known_defect`` operation's wrong answer is a documented defect of
    the library: it counts as failed but does not make the run incorrect.
    ``last`` is the latest answer, which ``prepare`` of a later operation
    in the same pass may read."""

    __slots__ = (
        "name", "fn", "args", "prepare", "check", "expect", "counts",
        "allow", "known_defect", "first", "last", "others", "runs", "verdicts",
    )

    def __init__(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        check: Callable | None = None,
        expect: type | None = None,
        counts: dict | None = None,
        prepare: Callable | None = None,
        allow: type | None = None,
        known_defect: str | None = None,
    ):
        self.name = name
        self.fn = fn
        self.args = args
        self.prepare = prepare
        self.check = check
        self.expect = expect
        self.counts = counts or {}
        self.allow = allow
        self.known_defect = known_defect
        self.first = _UNSET
        self.last = None
        self.others: list = []
        self.runs = 0
        self.verdicts: list = []

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def record(self, outcome) -> None:
        self.runs += 1
        self.last = outcome
        if self.first is _UNSET:
            self.first = outcome
        elif outcome != self.first:
            self.others.append(outcome)

    def judge(self) -> int:
        """Check every distinct answer; return how many runs failed."""
        if self.runs == 0:
            return 0
        self.verdicts = [self._verdict(self.first)] + [self._verdict(o) for o in self.others]
        same_as_first = self.runs - len(self.others)
        return same_as_first * (self.verdicts[0] is not None) + sum(
            v is not None for v in self.verdicts[1:]
        )

    def _verdict(self, outcome) -> str | None:
        if isinstance(outcome, Raised):
            if outcome.type is self.expect:
                return None
            if self.allow is not None and issubclass(outcome.type, self.allow):
                return None
            return f"raised {outcome.type.__name__}: {outcome.message}"
        if self.expect is not None:
            return f"returned instead of raising {self.expect.__name__}"
        return self.check(outcome)
