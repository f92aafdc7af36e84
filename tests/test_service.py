"""Tests for the compile-and-tune service: content-addressed store,
batch server, wire protocol, CLI, and the long-lived-process cache
knobs (engine decode cache, network layer memo, tune-cache hygiene).
"""

import errno
import json
import multiprocessing
import os
import subprocess
import threading
import time
from pathlib import Path

import pytest

from repro import api, durable, kernels
from repro.compiler import CompiledKernel, Compiler
from repro.kernels import lowlevel, networks
from repro.kernels.builders import KERNEL_BUILDERS
from repro.service import (
    ArtifactStore,
    CompileServer,
    RequestJournal,
    ServiceClient,
    ServiceRequest,
    StoreError,
    serve_forever,
)
from repro.service.server import request_key
from repro.service.store import compile_key, content_key
from repro.snitch import engine
from repro.tools import kernel_service
from repro.tune import TuneCache, evaluate_config, tune_kernel
from repro.tune.schedule import (
    ScheduleConfig,
    load_schedules,
    save_schedules,
)
from repro.tune.workers import HardenedPool, PoolConfig

#: Table 1 kernels at small, fast shapes.
TABLE1 = (
    ("fill", (2, 4)),
    ("sum", (2, 4)),
    ("relu", (2, 4)),
    ("conv3x3", (4, 4)),
    ("max_pool3x3", (4, 4)),
    ("sum_pool3x3", (4, 4)),
    ("matmul", (2, 3, 4)),
    ("matmul_t", (2, 3, 4)),
    ("matvec", (2, 4)),
)


def _dead_pid() -> int:
    """A pid guaranteed to be dead (a just-reaped child)."""
    child = subprocess.Popen(["true"])
    child.wait()
    return child.pid


# -- content keys ---------------------------------------------------------------


class TestContentKey:
    def test_deterministic(self):
        assert content_key("a", "b", 1) == content_key("a", "b", 1)

    def test_length_prefixing_prevents_concat_collisions(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_non_string_parts_canonicalized(self):
        assert content_key({"b": 1, "a": 2}) == content_key(
            {"a": 2, "b": 1}
        )

    def test_compile_key_includes_engine_version(self):
        assert compile_key("m", "p", 1) != compile_key("m", "p", 2)


# -- the artifact store ---------------------------------------------------------


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("hello")
        payload = {"cycles": 42, "nested": {"a": [1, 2]}}
        path = store.put("cycles", key, payload)
        assert path.is_file()
        assert store.get("cycles", key) == payload
        assert store.contains("cycles", key)
        stats = store.stats()
        assert stats["hits"] == 1 and stats["puts"] == 1
        assert stats["entries"] == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("cycles", content_key("nope")) is None
        assert store.stats()["misses"] == 1

    def test_bad_kind_and_key_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.put("../evil", content_key("x"), {})
        with pytest.raises(StoreError):
            store.put("kernel", "short", {})
        with pytest.raises(StoreError):
            store.put("kernel", content_key("x"), "not a dict")

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("kernel", key, {"asm": "nop"})
        text = path.read_text().replace("nop", "pwn")
        path.write_text(text)
        with pytest.warns(RuntimeWarning, match="integrity"):
            assert store.get("kernel", key) is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        assert store.stats()["quarantined"] == 1

    def test_undecodable_entry_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("kernel", key, {"asm": "nop"})
        path.write_text("{truncated")
        with pytest.warns(RuntimeWarning, match="undecodable"):
            assert store.get("kernel", key) is None

    def test_lru_eviction_under_cap(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [content_key(str(i)) for i in range(4)]
        for i, key in enumerate(keys):
            store.put("cycles", key, {"i": i})
            time.sleep(0.01)  # distinct mtimes
        store.get("cycles", keys[0])  # refresh the oldest
        entry_bytes = store.stats()["bytes"] // 4
        report = store.gc(max_bytes=entry_bytes * 2)
        assert report["evicted"] == 2
        # The touched entry survived; the stale middle ones went.
        assert store.contains("cycles", keys[0])
        assert store.contains("cycles", keys[3])
        assert not store.contains("cycles", keys[1])
        assert store.stats()["evictions"] == 2

    def test_put_cap_evicts_automatically(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)
        store.put("cycles", content_key("a"), {"v": 1})
        time.sleep(0.01)
        store.put("cycles", content_key("b"), {"v": 2})
        assert store.stats()["entries"] <= 1

    def test_gc_sweeps_dead_writer_tmp(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = content_key("x")
        path = store.put("cycles", key, {"v": 1})
        stale = path.parent / f"{key}.json.{_dead_pid()}.tmp"
        stale.write_text("{half a write")
        live = path.parent / f"{key}.json.{os.getpid()}.tmp"
        live.write_text("mine")
        store.gc()
        assert not stale.exists()
        assert live.exists()  # live writers are left alone
        live.unlink()

    def test_verify_all_counts_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = content_key("good")
        bad = content_key("bad")
        store.put("cycles", good, {"v": 1})
        path = store.put("cycles", bad, {"v": 2})
        path.write_text(path.read_text().replace('"v": 2', '"v": 3'))
        assert store.verify_all() == {"ok": 1, "corrupt": 1}


# -- CompiledKernel round trip --------------------------------------------------


class TestCompiledKernelRoundTrip:
    @pytest.mark.parametrize("kernel,sizes", TABLE1)
    def test_byte_identical_asm_and_cycles(self, kernel, sizes):
        builder, _arity = KERNEL_BUILDERS[kernel]
        module, spec = builder(*sizes)
        fresh = api.compile_linalg(module)
        back = CompiledKernel.from_json(
            json.loads(json.dumps(fresh.to_json()))
        )
        assert back.rehydrated
        assert back.asm == fresh.asm
        assert back.entry == fresh.entry
        assert back.pass_timings == fresh.pass_timings
        assert back.pass_stats == fresh.pass_stats
        args = spec.random_arguments(seed=0)
        cycles_fresh = api.run_kernel(fresh, args).trace.cycles
        cycles_back = api.run_kernel(
            back, spec.random_arguments(seed=0)
        ).trace.cycles
        assert cycles_fresh == cycles_back

    def test_register_usage_unavailable_when_rehydrated(self):
        module, _ = kernels.sum_kernel(2, 4)
        fresh = api.compile_linalg(module)
        back = CompiledKernel.from_json(fresh.to_json())
        with pytest.raises(ValueError, match="rehydrated"):
            back.register_usage()

    def test_malformed_artifact_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            CompiledKernel.from_json({"entry": "f"})


# -- the api store fast path ----------------------------------------------------


class TestApiStoreFastPath:
    def test_linalg_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, spec = kernels.matmul(2, 3, 4)
        first = api.compile_linalg(module, store=store)
        assert not first.rehydrated
        module2, _ = kernels.matmul(2, 3, 4)
        second = api.compile_linalg(module2, store=store)
        assert second.rehydrated
        assert second.asm == first.asm
        args = spec.random_arguments(seed=3)
        run = api.run_kernel(second, args)
        expected = spec.reference(*args)
        import numpy as np

        for got, want in zip(run.arrays, expected):
            if want is not None:
                assert np.allclose(got, want, atol=1e-8)

    def test_distinct_pipelines_get_distinct_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.matmul(2, 3, 4)
        api.compile_linalg(module, store=store)
        module2, _ = kernels.matmul(2, 3, 4)
        other = api.compile_linalg(
            module2, pipeline="table3-frep", store=store
        )
        assert not other.rehydrated  # different spec, different key
        assert store.stats()["entries"] == 2

    def test_snapshots_bypass_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.sum_kernel(2, 4)
        api.compile_linalg(module, store=store)
        module2, _ = kernels.sum_kernel(2, 4)
        snapped = api.compile_linalg(
            module2, store=store, snapshots=True
        )
        assert not snapped.rehydrated
        assert snapped.snapshots

    def test_lowlevel_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, spec = lowlevel.lowlevel_sum_f32(2, 4)
        first = api.compile_lowlevel(module, spec.name, store=store)
        module2, _ = lowlevel.lowlevel_sum_f32(2, 4)
        second = api.compile_lowlevel(module2, spec.name, store=store)
        assert second.rehydrated
        assert second.asm == first.asm
        assert second.entry == spec.name


# -- the batch server -----------------------------------------------------------


class TestCompileServer:
    def test_submit_compile_then_store_hit(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            request = ServiceRequest("compile", "sum", (2, 4))
            first = server.submit(request)
            assert first.ok and first.source == "computed"
            assert "frep.o" in first.kernel().asm
            second = server.submit(request)
            assert second.source == "store"
            assert second.payload == first.payload

    def test_measure_matches_direct_oracle(self, tmp_path):
        config = ScheduleConfig(unroll_factor=2)
        with CompileServer(ArtifactStore(tmp_path)) as server:
            result = server.submit(
                ServiceRequest(
                    "measure", "matmul", (2, 3, 4), config=config
                )
            )
            assert result.ok
        direct = evaluate_config("matmul", (2, 3, 4), config, seed=0)
        assert result.payload["cycles"] == direct

    def test_batch_dedups_and_reports_faults(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            requests = [
                ServiceRequest("compile", "relu", (2, 4)),
                ServiceRequest("compile", "relu", (2, 4)),
                ServiceRequest("compile", "fft", (8,)),
                ServiceRequest("measure", "relu", (2, 4)),
            ]
            results = server.batch(requests)
            assert len(results) == 4
            assert results[0].ok and results[1].ok
            assert results[0].key == results[1].key
            assert results[0].payload == results[1].payload
            assert not results[2].ok
            assert results[2].fault is not None
            assert results[2].source == "failed"
            assert results[3].ok
            counters = server.stats()["counters"]
            assert counters["deduped_in_batch"] == 1
            assert counters["computed"] == 2  # relu compile + measure
            assert counters["faults"] == 1

    def test_compile_key_shared_with_api_fast_path(self, tmp_path):
        store = ArtifactStore(tmp_path)
        module, _ = kernels.matmul(2, 3, 4)
        api.compile_linalg(module, store=store)
        with CompileServer(store) as server:
            result = server.submit(
                ServiceRequest("compile", "matmul", (2, 3, 4))
            )
            assert result.source == "store"

    def test_request_json_round_trip(self):
        request = ServiceRequest(
            "measure",
            "matmul",
            (2, 3, 4),
            config=ScheduleConfig(permutation=(1, 0, 2), num_cores=2),
            seed=7,
            validate=False,
        )
        assert ServiceRequest.from_json(request.to_json()) == request
        with pytest.raises(StoreError):
            ServiceRequest.from_json({"kind": "compile"})
        with pytest.raises(StoreError):
            ServiceRequest("decompile", "sum", (2, 4))

    def test_result_json_reports_fault(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            [result] = server.batch(
                [ServiceRequest("compile", "fft", (8,))]
            )
        data = result.to_json()
        assert data["fault"]["kind"]
        assert data["payload"] is None
        with pytest.raises(StoreError):
            result.kernel()

    def test_single_flight_threads_share_one_compute(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            request = ServiceRequest("compile", "conv3x3", (4, 4))
            barrier = threading.Barrier(4)
            results = []

            def hammer():
                barrier.wait()
                results.append(server.submit(request))

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 4
            assert all(r.ok for r in results)
            payloads = {
                json.dumps(r.payload, sort_keys=True) for r in results
            }
            assert len(payloads) == 1
            counters = server.stats()["counters"]
            assert counters["computed"] == 1
            assert (
                counters["joined_inflight"] + counters["store_hits"]
                == 3
            )

    @pytest.mark.parametrize("mode", ["batch", "mixed"])
    def test_shared_request_object_across_threads(self, tmp_path, mode):
        """Threads passing one shared request object all resolve.

        A batch that joined another thread's computation of the same
        request object once mistook the shared result for a slot it
        owned and died with a KeyError.
        """
        with CompileServer(ArtifactStore(tmp_path)) as server:
            trials = 5
            for trial in range(trials):
                request = ServiceRequest("compile", "sum", (2, 4 + trial))
                barrier = threading.Barrier(4)
                results = []

                def hammer(index):
                    barrier.wait()
                    if mode == "mixed" and index % 2:
                        results.append(server.submit(request))
                    else:
                        results.extend(server.batch([request]))

                threads = [
                    threading.Thread(target=hammer, args=(index,))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert len(results) == 4
                assert all(r.ok for r in results)
            assert server.stats()["counters"]["computed"] == trials

    @pytest.mark.parametrize(
        "case, source",
        [
            ("store-hit", "store"),
            ("compute", "computed"),
            ("prepare-failure", "failed"),
            ("compute-fault", "failed"),
            ("deadline", "failed"),
            ("overload", "rejected"),
            ("draining", "rejected"),
        ],
    )
    def test_submit_is_a_batch_of_one(self, tmp_path, case, source):
        request = ServiceRequest("compile", "sum", (2, 4))
        deadline = None
        options = {}
        if case == "prepare-failure":
            request = ServiceRequest("compile", "fft", (8,))
        elif case == "compute-fault":
            request = ServiceRequest(
                "measure",
                "sum",
                (2, 4),
                config=ScheduleConfig(permutation=(0, 0)),
            )
        elif case == "deadline":
            deadline = 0.0
        elif case == "overload":
            options["max_inflight"] = 0

        def observe(name, call):
            with CompileServer(
                ArtifactStore(tmp_path / name), **options
            ) as server:
                if case == "store-hit":
                    server.submit(request)
                elif case == "draining":
                    server.begin_drain()
                before = server.stats()["counters"]
                result = call(server)
                after = server.stats()["counters"]
            delta = {c: after[c] - before[c] for c in after}
            return result, delta

        single, single_delta = observe(
            "submit", lambda server: server.submit(request, deadline)
        )
        batched, batched_delta = observe(
            "batch", lambda server: server.batch([request], deadline)[0]
        )
        assert single.source == batched.source == source
        assert (single.fault and single.fault.kind) == (
            batched.fault and batched.fault.kind
        )
        assert (single.artifact_kind, single.key) == (
            batched.artifact_kind,
            batched.key,
        )
        assert single_delta == batched_delta
        assert single_delta["requests"] == 1

    def test_stats_exposes_cache_sizes(self, tmp_path):
        with CompileServer(ArtifactStore(tmp_path)) as server:
            stats = server.stats()
        assert "decode_programs" in stats["caches"]
        assert "layer_memo" in stats["caches"]
        assert stats["pool"]["workers"] == 1
        assert "store" in stats


def _race_batch_worker(store_dir, shapes, queue):
    store = ArtifactStore(store_dir)
    server = CompileServer(store)
    try:
        requests = []
        for kernel, sizes in shapes:
            requests.append(ServiceRequest("compile", kernel, sizes))
            requests.append(ServiceRequest("measure", kernel, sizes))
        results = server.batch(requests)
        queue.put([result.ok for result in results])
    finally:
        server.close()


class TestConcurrentStoreAccess:
    def test_two_processes_racing_batches(self, tmp_path):
        """Satellite drill: two processes batch overlapping requests
        over one store directory -> consistent store, zero corrupt
        entries, unioned artifacts."""
        context = multiprocessing.get_context("fork")
        shared = list(TABLE1[:4])
        left = shared + [("matmul", (2, 3, 4))]
        right = shared + [("matvec", (2, 4))]
        queue = context.Queue()
        workers = [
            context.Process(
                target=_race_batch_worker,
                args=(str(tmp_path), shapes, queue),
            )
            for shapes in (left, right)
        ]
        for worker in workers:
            worker.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert all(all(flags) for flags in outcomes)
        store = ArtifactStore(tmp_path)
        report = store.verify_all()
        assert report["corrupt"] == 0
        # Union: every distinct request from both processes present.
        for kernel, sizes in left + right:
            for request in (
                ServiceRequest("compile", kernel, sizes),
                ServiceRequest("measure", kernel, sizes),
            ):
                kind, key = request_key(request)
                assert store.contains(kind, key), request.label()


# -- wire protocol --------------------------------------------------------------


@pytest.fixture
def live_server(tmp_path):
    socket_path = tmp_path / "service.sock"
    ready = threading.Event()
    thread = threading.Thread(
        target=serve_forever,
        args=(tmp_path / "store", socket_path),
        kwargs={"ready": lambda addr: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30)
    client = ServiceClient(socket_path)
    yield client, socket_path
    try:
        client.shutdown()
    except Exception:
        pass
    thread.join(timeout=30)


class TestWireProtocol:
    def test_full_session(self, live_server):
        client, socket_path = live_server
        assert client.ping()
        result = client.submit(ServiceRequest("compile", "sum", (2, 4)))
        assert result["source"] == "computed"
        results = client.batch(
            [
                ServiceRequest("compile", "sum", (2, 4)),
                ServiceRequest("measure", "sum", (2, 4)),
            ]
        )
        assert results[0]["source"] == "store"
        assert results[1]["payload"]["cycles"] > 0
        stats = client.stats()
        assert stats["counters"]["requests"] == 3
        assert client.gc()["evicted"] == 0

    def test_faults_travel_as_results_not_errors(self, live_server):
        client, _ = live_server
        result = client.submit(ServiceRequest("compile", "fft", (8,)))
        assert result["fault"] is not None
        assert result["payload"] is None

    def test_shutdown_removes_socket(self, live_server):
        client, socket_path = live_server
        client.shutdown()
        deadline = time.monotonic() + 10
        while socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not socket_path.exists()


# -- fork safety ----------------------------------------------------------------


def _echo_task(task):
    payload, _injection = task
    return payload, None


class TestForkSafety:
    def test_pool_prestart_forks_full_complement(self):
        pool = HardenedPool(_echo_task, PoolConfig(workers=2))
        if not pool.parallel:
            pytest.skip("fork start method unavailable")
        try:
            pool.prestart()
            assert len(pool._workers) == 2
            pool.prestart()  # idempotent
            assert len(pool._workers) == 2
            results = pool.map([(0, "a", 1), (1, "b", 2)])
            assert [result for result, _ in results] == [1, 2]
            assert all(fault is None for _, fault in results)
        finally:
            pool.close()

    def test_server_prestarts_workers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with CompileServer(store, workers=2) as server:
            if server.pool.parallel:
                assert len(server.pool._workers) == 2

    def test_parallel_batch_does_not_wedge_server(self, tmp_path):
        # Regression: workers used to fork lazily during the first
        # parallel batch, inheriting the accepted connection fd; when
        # client and server share a process (server thread), the
        # client closing that connection never produced EOF and the
        # server hung in recv() instead of accepting new connections.
        socket_path = tmp_path / "service.sock"
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_forever,
            args=(tmp_path / "store", socket_path),
            kwargs={"workers": 2, "ready": lambda addr: ready.set()},
            daemon=True,
        )
        thread.start()
        assert ready.wait(30)
        client = ServiceClient(socket_path)
        results = client.batch(
            [
                ServiceRequest("compile", "sum", (2, 4)),
                ServiceRequest("measure", "sum", (2, 4)),
            ]
        )
        assert [r["source"] for r in results] == ["computed", "computed"]
        answered = threading.Event()
        stats: dict = {}

        def poke():
            stats.update(client.stats())
            answered.set()

        threading.Thread(target=poke, daemon=True).start()
        assert answered.wait(30), (
            "server wedged after a parallel batch "
            "(a forked worker inherited the connection fd)"
        )
        assert stats["counters"]["computed"] == 2
        client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


# -- decode cache (satellites 1 + 2) --------------------------------------------


class TestDecodeCache:
    def setup_method(self):
        engine.clear_decode_cache()

    teardown_method = setup_method

    def test_threaded_hammer_decodes_once(self):
        module, _ = kernels.conv3x3(4, 4)
        program = api.compile_linalg(module).program
        before = engine.DECODE_STATS["programs_decoded"]
        barrier = threading.Barrier(8)
        decoded = []

        def hammer():
            barrier.wait()
            decoded.append(engine.decode(program))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(decoded) == 8
        assert all(d is decoded[0] for d in decoded)
        assert engine.DECODE_STATS["programs_decoded"] == before + 1

    def test_clear_drops_memoized_decodes(self):
        module, _ = kernels.sum_kernel(2, 4)
        program = api.compile_linalg(module).program
        engine.decode(program)
        assert engine.decode_cache_size() >= 1
        engine.clear_decode_cache()
        assert engine.decode_cache_size() == 0
        assert not hasattr(program, "_decoded")

    def test_dead_programs_pruned(self):
        module, _ = kernels.sum_kernel(2, 4)
        program = api.compile_linalg(module).program
        engine.decode(program)
        assert engine.decode_cache_size() >= 1
        del program
        import gc

        gc.collect()  # Program <-> DecodedProgram is a cycle
        assert engine.decode_cache_size() == 0


class TestLayerMemo:
    def setup_method(self):
        networks.clear_layer_cache()
        networks.set_layer_cache_limit(64)

    teardown_method = setup_method

    def test_cross_call_reuse(self):
        layers = networks.nsnet2_layers(width=4)
        first = networks.compile_layers(layers)
        assert networks.layer_cache_size() > 0
        second = networks.compile_layers(layers)
        for (c1, _), (c2, _) in zip(first, second):
            assert c1 is c2  # same compiled kernel object, no rebuild

    def test_pipeline_is_part_of_the_key(self):
        layers = [networks.nsnet2_layers(width=4)[1]]  # one relu
        (ours, _), = networks.compile_layers(layers, pipeline="ours")
        (frep, _), = networks.compile_layers(
            layers, pipeline="table3-frep"
        )
        assert ours is not frep

    def test_limit_and_clear(self):
        layers = networks.nsnet2_layers(width=4)
        networks.compile_layers(layers)
        assert networks.layer_cache_size() > 1
        networks.set_layer_cache_limit(1)
        assert networks.layer_cache_size() == 1
        assert networks.layer_cache_limit() == 1
        networks.clear_layer_cache()
        assert networks.layer_cache_size() == 0
        with pytest.raises(ValueError):
            networks.set_layer_cache_limit(-1)

    def test_run_network_still_validates(self):
        layers = networks.nsnet2_layers(width=4)
        first = networks.run_network("nsnet2", layers, validate=True)
        second = networks.run_network("nsnet2", layers, validate=True)
        assert first.total_cycles == second.total_cycles


# -- durable-file hygiene, shared by every writer ------------------------------


def _write_cache(directory: Path) -> Path:
    path = directory / "cache.json"
    cache = TuneCache(path)
    key = TuneCache.key("sum", (2, 4), ScheduleConfig())
    cache.put(key, 10)
    cache.save()
    hit, cycles, fault = TuneCache(path).lookup(key)
    assert hit and cycles == 10 and fault is None
    assert json.loads(path.read_text())["schema"] == 2
    return path


def _write_store(directory: Path) -> Path:
    store = ArtifactStore(directory / "store")
    key = content_key("durable")
    path = store.put("kernel", key, {"asm": "nop"})
    assert store.get("kernel", key) == {"asm": "nop"}
    return path


def _write_journal(directory: Path) -> Path:
    journal = RequestJournal(directory / "journal.json")
    journal.begin("kernel", "a" * 64)
    assert [r["key"] for r in journal.pending()] == ["a" * 64]
    return journal.path


def _write_schedules(directory: Path) -> Path:
    path = directory / "schedules.json"
    save_schedules(path, [])
    assert load_schedules(path) == []
    return path


#: Each writer writes (and reads back) one durable file, returning its
#: path.  The lock sits beside the file, except the store's, which is
#: store-wide.
DURABLE_WRITERS = {
    "cache": (_write_cache, "cache.json.lock"),
    "store": (_write_store, "store/store.lock"),
    "journal": (_write_journal, "journal.json.lock"),
    "schedules": (_write_schedules, "schedules.json.lock"),
}


@pytest.mark.parametrize("writer", sorted(DURABLE_WRITERS))
class TestDurableFileCleanup:
    def test_stale_lock_and_tmp_do_not_block_next_run(
        self, tmp_path, writer
    ):
        write, lock_name = DURABLE_WRITERS[writer]
        path = write(tmp_path)
        # Simulate a SIGKILLed writer: leftover lock file + pid-tagged
        # temp from a process that no longer exists.
        lock = tmp_path / lock_name
        lock.write_text("")
        stale = path.with_name(f"{path.name}.{_dead_pid()}.tmp")
        stale.write_text('{"half": ')
        write(tmp_path)  # must not block on the leftover lock file
        assert not stale.exists()  # swept by the writer
        assert lock.exists()

    def test_live_writer_tmp_left_alone(self, tmp_path, writer):
        write, lock_name = DURABLE_WRITERS[writer]
        path = write(tmp_path)
        live = path.with_name(f"{path.name}.{os.getppid()}.tmp")
        live.write_text("in progress")
        write(tmp_path)
        assert live.read_text() == "in progress"


def test_pid_alive_answers_alive_when_unsure(monkeypatch):
    """An unexpected probe error must not get a live writer's temp
    file swept."""

    def kill(pid, sig):
        raise OSError(errno.EINVAL, "unexpected")

    monkeypatch.setattr(durable.os, "kill", kill)
    assert durable.pid_alive(12345)


# -- tuner store integration ----------------------------------------------------


class TestTunerStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = tune_kernel(
            "matmul",
            (2, 3, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert not first.from_store
        second = tune_kernel(
            "matmul",
            (2, 3, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert second.from_store
        assert second.candidates == []
        assert second.best.cycles == first.best.cycles
        assert second.best.config == first.best.config

    def test_different_budget_is_a_different_search(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        tune_kernel(
            "relu",
            (2, 4),
            strategy="random",
            budget=2,
            cache=TuneCache(None),
            store=store,
        )
        other = tune_kernel(
            "relu",
            (2, 4),
            strategy="random",
            budget=3,
            cache=TuneCache(None),
            store=store,
        )
        assert not other.from_store


# -- the CLI --------------------------------------------------------------------


class TestServiceCli:
    def test_submit_in_process(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        assert code == 0
        assert "computed" in capsys.readouterr().out
        code = kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        assert code == 0
        assert "store" in capsys.readouterr().out

    def test_submit_asm_output(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "compile", "sum", "2", "4",
                "--store", str(tmp_path / "store"), "--asm",
            ]
        )
        assert code == 0
        assert ".globl sum" in capsys.readouterr().out

    def test_measure_with_schedule_knobs(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "measure", "matmul", "2", "3", "4",
                "--permutation", "1-0-2", "--unroll", "2",
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert "cycles" in capsys.readouterr().out

    def test_batch_file_and_exit_codes(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            json.dumps(
                [
                    {"kind": "compile", "kernel": "sum",
                     "sizes": [2, 4]},
                    {"kind": "measure", "kernel": "sum",
                     "sizes": [2, 4]},
                ]
            )
        )
        store = str(tmp_path / "store")
        assert kernel_service.main(
            ["batch", str(jobs), "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out
        # A faulting job flips the exit code but not the batch.
        jobs.write_text(
            json.dumps(
                [{"kind": "compile", "kernel": "sum", "sizes": [2]}]
            )
        )
        assert kernel_service.main(
            ["batch", str(jobs), "--store", store]
        ) == 1
        assert "FAULT" in capsys.readouterr().out

    def test_stats_and_gc_json(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        kernel_service.main(
            ["submit", "compile", "sum", "2", "4", "--store", store]
        )
        capsys.readouterr()
        assert kernel_service.main(["stats", "--store", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["store"]["entries"] == 1
        assert kernel_service.main(["gc", "--store", store]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["after"]["entries"] == 1

    def test_socket_backend(self, live_server, capsys):
        _, socket_path = live_server
        code = kernel_service.main(
            [
                "submit", "compile", "relu", "2", "4",
                "--socket", str(socket_path),
            ]
        )
        assert code == 0
        assert "computed" in capsys.readouterr().out

    def test_backend_required(self, tmp_path):
        with pytest.raises(SystemExit):
            kernel_service.main(["submit", "compile", "sum", "2", "4"])

    def test_unreachable_socket_is_exit_4(self, tmp_path, capsys):
        code = kernel_service.main(
            [
                "submit", "compile", "sum", "2", "4",
                "--socket", str(tmp_path / "absent.sock"),
            ]
        )
        assert code == 4
        assert "service error" in capsys.readouterr().err


# -- pipeline spec canonicalization guard ---------------------------------------


class TestKeying:
    def test_request_key_matches_canonical_spec(self):
        request = ServiceRequest("compile", "matmul", (2, 3, 4))
        kind, key = request_key(request)
        assert kind == "kernel"
        module, _ = kernels.matmul(2, 3, 4)
        from repro.ir.printer import print_op

        text = print_op(module)
        spec = Compiler("ours").pipeline_spec
        assert key == compile_key(text, spec)

    def test_measure_keys_differ_by_config_and_seed(self):
        base = ServiceRequest("measure", "sum", (2, 4))
        by_config = ServiceRequest(
            "measure", "sum", (2, 4),
            config=ScheduleConfig(unroll_factor=2),
        )
        by_seed = ServiceRequest("measure", "sum", (2, 4), seed=1)
        keys = {request_key(r)[1] for r in (base, by_config, by_seed)}
        assert len(keys) == 3
