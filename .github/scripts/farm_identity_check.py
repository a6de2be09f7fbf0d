"""CI smoke: N concurrent farm clients must reproduce the serial run.

Usage: farm_identity_check.py HOST:PORT [label]

Runs a serial figure4 fault campaign in-process, then farms the same
campaign through 8 concurrent TLS+token clients against the given
endpoint and asserts every client's report matches the serial one.
The server-smoke job runs this against both a thread-tier and a
``--dispatch process`` worker, so the identity claim covers the
multi-core dispatch path too.
"""

import random
import sys
import threading

from repro.core import Logic
from repro.faults import SerialFaultSimulator, build_fault_list
from repro.parallel import diff_reports
from repro.parallel.remote import remote_fault_simulate, resolve_bench

CLIENTS = 8

endpoint = sys.argv[1]
label = sys.argv[2] if len(sys.argv) > 2 else endpoint

netlist = resolve_bench("figure4")
rng = random.Random(0)
patterns = [{net: Logic(rng.getrandbits(1))
             for net in netlist.inputs} for _ in range(48)]
serial = SerialFaultSimulator(
    netlist, build_fault_list(netlist)).run(patterns)

results, failures = {}, []


def client(index):
    try:
        results[index] = remote_fault_simulate(
            "figure4", patterns, [endpoint],
            token="ci-secret", tls_ca="ci.pem")
    except Exception as exc:
        failures.append((index, exc))


threads = [threading.Thread(target=client, args=(index,))
           for index in range(CLIENTS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert not failures, failures[:3]
assert len(results) == CLIENTS
for index, report in sorted(results.items()):
    problems = diff_reports(report, serial)
    assert problems == [], (index, problems)
print(f"ok [{label}]: {CLIENTS} concurrent TLS+auth clients "
      f"reproduced the serial report ({serial.detected_count}/"
      f"{serial.total_faults} detected)")
