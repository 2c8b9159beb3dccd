"""Expected outputs, computed apart from the program under test.

The oracles below never call the decision, enforcement or mining code
they judge.  They read only *data* from the program: the demo
deployment's rule text (``DEMO_RULES``), the parent links of the
vocabulary trees, and the column binding of the demo table.  Everything
else -- which rule covers an access, which rows a query returns, which
patterns a trail holds -- is recomputed here in plain Python.
"""

from __future__ import annotations

import random
import re

_RULE_RE = re.compile(r"^ALLOW (\S+) TO USE (\S+) FOR (\S+)$")

#: Audit-schema codes (Section 4.2): op 1 = allow, 0 = deny; status
#: 1 = regular, 0 = exception.
OP_ALLOW, OP_DENY = 1, 0
STATUS_REGULAR, STATUS_EXCEPTION = 1, 0


class DecisionOracle:
    """Which categories ``DEMO_RULES`` permits to a (role, purpose)."""

    def __init__(self, rule_lines, vocabulary) -> None:
        self._rules = []
        for line in rule_lines:
            match = _RULE_RE.match(line.strip())
            if match is None:
                raise ValueError(f"unexpected demo rule shape: {line!r}")
            role, data, purpose = match.groups()
            self._rules.append((data, purpose, role))
        self._trees = {
            attribute: vocabulary.tree_for(attribute)
            for attribute in ("data", "purpose", "authorized")
        }
        self._memo: dict[tuple[str, str, str], bool] = {}

    def _lineage(self, attribute: str, value: str) -> set[str]:
        """``value`` and every ancestor, walked through parent links."""
        tree = self._trees[attribute]
        seen = set()
        node = value
        while node is not None:
            seen.add(node)
            node = tree.parent(node)
        return seen

    def permits(self, category: str, purpose: str, role: str) -> bool:
        key = (category, purpose, role)
        verdict = self._memo.get(key)
        if verdict is None:
            data_up = self._lineage("data", category)
            purpose_up = self._lineage("purpose", purpose)
            role_up = self._lineage("authorized", role)
            verdict = any(
                data in data_up and rule_purpose in purpose_up and rule_role in role_up
                for data, rule_purpose, rule_role in self._rules
            )
            self._memo[key] = verdict
        return verdict

    def split(self, categories, purpose: str, role: str, exception: bool):
        """``(returned, masked)`` sorted category tuples for one request."""
        unique = sorted(set(categories))
        if exception:
            return tuple(unique), ()
        returned = tuple(c for c in unique if self.permits(c, purpose, role))
        masked = tuple(c for c in unique if c not in returned)
        return returned, masked


def expected_entries(user, returned, masked, exception):
    """The audit entries one request must write, as (user, data, op, status).

    A request with nothing permitted writes one DENY entry per masked
    category; otherwise one ALLOW entry per returned category and then
    one DENY entry per masked category.
    """
    status = STATUS_EXCEPTION if exception else STATUS_REGULAR
    if not returned:
        return [(user, category, OP_DENY, status) for category in masked]
    return [(user, category, OP_ALLOW, status) for category in returned] + [
        (user, category, OP_DENY, status) for category in masked
    ]


def demo_table(columns, rows: int, seed: int):
    """The demo ``patients`` table, regenerated from its seeded recipe.

    Mirrors the construction the served deployment documents: row ``i``
    has ``pid = p<i:06d>`` and, for each bound column in order, the text
    ``<column>-<randrange(10_000)>`` drawn from ``random.Random(seed)``.
    """
    rng = random.Random(seed)
    table = []
    for index in range(rows):
        record = {"pid": f"p{index:06d}"}
        for column in columns:
            record[column] = f"{column}-{rng.randrange(10_000)}"
        table.append(record)
    return table


def group_by_patterns(entries, min_support: int, min_users: int):
    """Algorithm 5 as a plain-Python GROUP BY.

    Groups the exception ALLOW entries by ``(data, purpose, authorized)``
    and keeps groups with at least ``min_support`` rows and at least
    ``min_users`` distinct users; returns ``{key: (support, users)}``.
    """
    groups: dict[tuple[str, str, str], list] = {}
    for entry in entries:
        if int(entry.op) != OP_ALLOW or int(entry.status) != STATUS_EXCEPTION:
            continue
        key = (entry.data, entry.purpose, entry.authorized)
        slot = groups.get(key)
        if slot is None:
            groups[key] = [1, {entry.user}]
        else:
            slot[0] += 1
            slot[1].add(entry.user)
    return {
        key: (count, len(users))
        for key, (count, users) in groups.items()
        if count >= min_support and len(users) >= min_users
    }
