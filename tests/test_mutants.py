"""The mutator of the mutation screen, tests/mutants.py, on src/womcode.  It
builds mutants only: it runs none and starts no process."""

from __future__ import annotations

import ast
from collections import Counter

import mutants


def test_mutator_makes_every_operator_and_leaves_the_package_alone():
    before = {path: path.read_bytes() for path in sorted(mutants.PACKAGE.glob("*.py"))}
    operators = Counter()
    for path, data in before.items():
        source = data.decode("utf-8")
        sites = mutants.sites(path.stem, source)
        operators.update(site.operator for site in sites)
        unmutated = ast.unparse(ast.parse(source))
        # The first mutant of each operator, and every 40th.
        firsts = {site.operator: i for i, site in reversed(list(enumerate(sites)))}
        for index in sorted({*firsts.values(), *range(0, len(sites), 40)}):
            mutant = mutants.mutant_source(source, index)
            assert mutant != unmutated, sites[index]
            compile(mutant, str(path), "exec")
    assert set(operators) == set(mutants.OPERATORS), operators
    assert {path: path.read_bytes() for path in before} == before
