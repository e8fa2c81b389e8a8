"""REP-P002: per-edge hot loops must not allocate a Python object per edge."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def rules_of(source: str, cost_scope: bool = True) -> set[str]:
    return {f.rule for f in lint_source(textwrap.dedent(source), cost_scope=cost_scope)}


# -- REP-P002: per-edge Python-object allocation ------------------------------


ALLOCATING_LOOP = """
    def insert_batch(self, edges):
        '''Insert.'''
        self.cm.charge(work=len(edges), depth=1)
        for u, v in edges:
            self.adj.setdefault(u, set()).add(v)
"""


def test_p002_fires_on_setdefault_growth_in_edge_loop():
    assert "REP-P002" in rules_of(ALLOCATING_LOOP)


def test_p002_fires_on_class_construction_in_edge_loop():
    violating = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.nodes.append(EdgeNode(u, v))
    """
    assert "REP-P002" in rules_of(violating)


def test_p002_fires_on_per_item_mutation_allocation():
    violating = """
        def insert(self, key):
            '''File one key.'''
            self._root = _join(self._root, _Node(key))
    """
    assert "REP-P002" in rules_of(violating)


def test_p002_silent_on_allocation_free_edge_loop():
    clean = """
        def delete_batch(self, edges):
            '''Delete.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.adj[u].discard(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_silent_on_raising_path():
    clean = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                if u == v:
                    raise BatchError(f"self-loop {u}")
                self.adj[u].add(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_silent_on_hoisted_allocation():
    clean = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            touched = set()
            for u, v in edges:
                touched.add(u)
                touched.add(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_respects_suppression():
    suppressed = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.adj.setdefault(u, set()).add(v)  # reprolint: disable=REP-P002
    """
    assert "REP-P002" not in rules_of(suppressed)


def test_p002_silent_outside_cost_scope():
    assert "REP-P002" not in rules_of(ALLOCATING_LOOP, cost_scope=False)
