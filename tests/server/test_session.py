"""Session isolation: per-session id spaces and how they are bound."""

import threading

import pytest

from repro.core import ids
from repro.parallel.scenarios import reset_session_state

ID_SITES = ("call_ids", "session_ids", "negotiation_ids",
            "scheduler_ids", "module_ids", "connector_ids")


@pytest.fixture
def private_default(monkeypatch):
    """A throwaway process-default space, restored after the test."""
    monkeypatch.setattr(ids, "_process_default", ids.IdSpace())


def draw(site, count=1):
    return [next(getattr(ids.current(), site)) for _ in range(count)]


class TestCounterSites:
    def test_every_site_exists_and_counts(self):
        space = ids.IdSpace()
        for site in ID_SITES:
            assert [next(getattr(space, site)) for _ in range(3)] \
                == [1, 2, 3], site

    def test_the_known_leak_sites_are_covered(self):
        # Every id that reaches marshalled bytes; a new one must be
        # added to the IdSpace, not kept as a module-level counter.
        assert ids.IdSpace.__slots__ == ID_SITES

    def test_reset_session_state_rewinds_every_site(
            self, private_default):
        for site in ID_SITES:
            draw(site, 2)  # advance away from 1
        reset_session_state()
        for site in ID_SITES:
            assert draw(site) == [1], site


class TestIdSpace:
    def test_fresh_spaces_start_at_one(self):
        space = ids.IdSpace()
        for site in ID_SITES:
            assert next(getattr(space, site)) == 1

    def test_spaces_are_independent(self):
        first, second = ids.IdSpace(), ids.IdSpace()
        assert [next(first.call_ids) for _ in range(3)] == [1, 2, 3]
        assert next(second.call_ids) == 1


class TestUseSpace:
    def test_binds_and_restores(self, private_default):
        outside = ids.current()
        space = ids.IdSpace()
        with ids.use_space(space):
            assert ids.current() is space
            assert draw("call_ids") == [1]
        assert ids.current() is outside

    def test_session_sequences_resume_across_entries(self):
        space = ids.IdSpace()
        with ids.use_space(space):
            assert draw("session_ids") == [1]
        with ids.use_space(space):
            assert draw("session_ids") == [2]

    def test_two_tenants_each_see_fresh_process_ids(self):
        tenants = [ids.IdSpace(), ids.IdSpace()]
        seen = {0: [], 1: []}
        for _ in range(3):
            for tenant, space in enumerate(tenants):
                with ids.use_space(space):
                    seen[tenant] += draw("module_ids")
        assert seen == {0: [1, 2, 3], 1: [1, 2, 3]}

    def test_restores_on_exception(self, private_default):
        outside = ids.current()
        with pytest.raises(RuntimeError):
            with ids.use_space(ids.IdSpace()):
                raise RuntimeError("servant fault")
        assert ids.current() is outside

    def test_binding_is_local_to_the_calling_thread(self,
                                                    private_default):
        seen = []
        with ids.use_space(ids.IdSpace()):
            draw("call_ids", 5)
            other = threading.Thread(
                target=lambda: seen.extend(draw("call_ids")))
            other.start()
            other.join()
        # The other thread drew from the process default, untouched
        # by the binding here.
        assert seen == [1]

    def test_concurrent_sessions_draw_independent_ids(self):
        barrier = threading.Barrier(2)
        seen = {}

        def tenant(name):
            with ids.use_space(ids.IdSpace()):
                barrier.wait(timeout=5)  # both bound at once
                seen[name] = draw("scheduler_ids", 3)

        threads = [threading.Thread(target=tenant, args=(n,))
                   for n in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"a": [1, 2, 3], "b": [1, 2, 3]}

    def test_reset_leaves_bound_spaces_alone(self, private_default):
        space = ids.IdSpace()
        with ids.use_space(space):
            draw("call_ids", 3)
            reset_session_state()
            assert draw("call_ids") == [4]
        assert draw("call_ids") == [1]

    def test_unbound_threads_draw_from_the_process_default(
            self, private_default):
        before = draw("call_ids")[0]
        seen = []
        worker = threading.Thread(
            target=lambda: seen.extend(draw("call_ids")))
        worker.start()
        worker.join()
        assert seen == [before + 1]
        assert draw("call_ids") == [before + 2]
