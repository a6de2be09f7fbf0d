"""Meta-test: the waived counters and the JCD014 discovery agree.

The ids that reach marshalled bytes live in ``repro.core.ids.IdSpace``,
bound per session.  Every module-level counter left in ``src/repro``
must be one of the adjudicated waivers below, and the JCD014 sweep
(which honours the inline waiver comments) must find nothing else.
"""

import itertools
import os

import repro
from repro.core import ids
from repro.lint.callgraph import CallGraph
from repro.lint.concurrency import lint_call_graph
from repro.parallel.scenarios import reset_session_state

ADJUDICATED_WAIVERS = frozenset({
    # Waived with inline comments rather than moved into the IdSpace:
    # the wire paths pass explicit names / opaque nonces, so their
    # values never shape marshalled bytes.
    # tests/lint/test_counter_adjudication.py proves that
    # differentially.
    ("repro.estimation.setup", "_setup_ids"),
    ("repro.parallel.remote", "_pool_nonces"),
    # Repr-only: token ids appear in debugging reprs, never on the
    # wire.
    ("repro.core.token", "_token_ids"),
    # Dispatcher ids key a registry keyed per-object; never marshalled.
    ("repro.server.dispatch", "_dispatcher_ids"),
})


def real_tree_graph():
    package_dir = os.path.dirname(repro.__file__)
    return CallGraph.from_files(
        sorted(os.path.join(root, name)
               for root, _dirs, names in os.walk(package_dir)
               for name in names if name.endswith(".py")))


class TestInventoryAgainstDiscovery:
    def test_only_waived_counters_are_module_level(self):
        discovered = real_tree_graph().discovered_sites()
        assert discovered == ADJUDICATED_WAIVERS, (
            f"module-level counters outside the waiver list: "
            f"{sorted(discovered - ADJUDICATED_WAIVERS)}")

    def test_adjudicated_waivers_are_still_real_counters(self):
        discovered = real_tree_graph().discovered_sites()
        gone = ADJUDICATED_WAIVERS - discovered
        assert gone == set(), (
            f"waived counters that vanished -- delete the waiver "
            f"comment and this entry: {sorted(gone)}")

    def test_every_discovered_counter_is_accounted_for(self):
        # The lint sweep itself (JCD014, which also honours the inline
        # waiver comments) must agree there is nothing left.
        findings = [item for item in lint_call_graph(real_tree_graph())
                    if item.code == "JCD014"]
        assert findings == []


class TestResetCoversTheInventory:
    """The id inventory is ``IdSpace.__slots__``; the worker reset
    must rewind every id in it."""

    def test_reset_rewinds_every_site(self):
        # Advance every id of the process-default space, reset, and
        # check each one hands out 1 again.
        for site in ids.IdSpace.__slots__:
            counter = getattr(ids.current(), site)
            assert isinstance(counter, type(itertools.count())), (
                f"IdSpace.{site} is not an itertools.count")
            for _ in range(10):
                next(counter)
        reset_session_state()
        for site in ids.IdSpace.__slots__:
            assert next(getattr(ids.current(), site)) == 1, (
                f"reset_session_state left IdSpace.{site} advanced")
        reset_session_state()

    def test_inventory_is_importable_and_unique(self):
        sites = ids.IdSpace.__slots__
        assert len(set(sites)) == len(sites)
        space = ids.IdSpace()
        for site in sites:
            assert hasattr(space, site), f"IdSpace.{site} missing"
        # None of the inventoried ids is also kept as a module-level
        # counter somewhere in the tree.
        discovered = {attr for _module, attr
                      in real_tree_graph().discovered_sites()}
        assert discovered.isdisjoint(
            {f"_{site}" for site in sites} | set(sites))
