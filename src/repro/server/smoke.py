"""End-to-end service smoke: boot, price, sweep, stampede, shut down.

``python -m repro.server.smoke`` is the scripted client the CI
``service-smoke`` job runs against a real ``repro serve`` subprocess:

1. boot the server on an ephemeral port and wait on ``/v1/healthz``;
2. price one configuration (2xx, sane payload), then price it again
   and require a byte-identical body (the second one is resolved from
   the server's memo of built configurations);
3. fire a stampede of identical cold ``/v1/price`` requests and assert
   the single-flight contract: every response 200 and byte-identical,
   exactly **one** profiling fill on ``/v1/stats``;
4. run a materialized ``/v1/sweep`` and compare its body byte-for-byte
   against ``repro dse --format json`` for the same spec
   (``--ref FILE`` supplies a pre-rendered reference instead);
5. poke the error paths (malformed JSON, unknown workload, axis
   values ``repro dse --axes`` refuses, wrong method, unknown route)
   and require the intended statuses;
6. SIGTERM the server and require a graceful exit 0 with no process
   left behind.

Any deviation exits 1 with a one-line reason.  The harness pins a
scratch ``REPRO_CACHE_DIR`` (shared between the server and the CLI
reference run) unless the environment already provides one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.server.client import ServerClient, fetch

STAMPEDE = 8
#: the sequential price check (cheap at smoke scale, axes off-default)
PRICE_PAYLOAD = {"workload": "img:sobel3x3",
                 "axes": {"clock_mhz": 80.0, "fpu": True}}
#: a *different* workload, so the stampede's key is genuinely cold
STAMPEDE_PAYLOAD = {"workload": "img:sharpen3x3",
                    "axes": {"nwindows": 8, "fpu": True}}
SWEEP_AXES = "clock_mhz=25:50,fpu"
#: axis values ``repro dse --axes`` refuses: each must answer 400
#: ``bad-axis-value``, never a truncated price or a 500
REFUSED_AXES = ({"nwindows": 8.5}, {"clock_mhz": 10 ** 400})


class SmokeFailure(Exception):
    """One failed smoke check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def boot_server(scale: str, env: dict) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral port; return (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--scale", scale],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on [^:]+:(\d+)", line or "")
    if not match:
        proc.kill()
        raise SmokeFailure(f"server did not announce a port: {line!r}")
    return proc, int(match.group(1))


def wait_healthy(client: ServerClient, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status, _ = client.get("/v1/healthz")
            if status == 200:
                return
        except OSError:
            pass
        time.sleep(0.1)
    raise SmokeFailure(f"/v1/healthz not ready within {timeout_s}s")


def check_stampede(host: str, port: int) -> None:
    """N identical cold prices -> one fill, identical 200 bodies."""
    client = ServerClient(host, port)
    status, before = client.get_json("/v1/stats")
    check(status == 200, f"/v1/stats -> {status}")
    body = json.dumps(STAMPEDE_PAYLOAD).encode()

    async def stampede():
        return await asyncio.gather(*[
            fetch(host, port, "POST", "/v1/price", body)
            for _ in range(STAMPEDE)])

    results = asyncio.run(stampede())
    statuses = sorted({status for status, _ in results})
    check(statuses == [200], f"stampede statuses {statuses}, wanted [200]")
    bodies = {payload for _, payload in results}
    check(len(bodies) == 1,
          f"stampede produced {len(bodies)} distinct bodies, wanted 1")
    status, after = client.get_json("/v1/stats")
    check(status == 200, f"/v1/stats -> {status}")
    fills = after["profiles"]["fills"] - before["profiles"]["fills"]
    check(fills == 1,
          f"{STAMPEDE} identical cold prices ran {fills} profiling "
          f"fills, wanted exactly 1 (single-flight broken)")


def reference_sweep(scale: str, env: dict, ref_path: str | None) -> bytes:
    """The CLI-rendered reference report for the smoke sweep spec."""
    if ref_path:
        with open(ref_path, "rb") as handle:
            return handle.read()
    done = subprocess.run(
        [sys.executable, "-m", "repro", "dse", "--scale", scale,
         "--axes", SWEEP_AXES, "--format", "json"],
        capture_output=True, env=env)
    check(done.returncode == 0,
          f"reference `repro dse` exited {done.returncode}: "
          f"{done.stderr.decode(errors='replace')[-300:]}")
    return done.stdout


def check_errors(client: ServerClient) -> None:
    status, _ = client._request("POST", "/v1/price", b"{not json")
    check(status == 400, f"malformed JSON -> {status}, wanted 400")
    status, _ = client.post_json("/v1/price",
                                 {"workload": "img:no-such-kernel"})
    check(status == 404, f"unknown workload -> {status}, wanted 404")
    for axes in REFUSED_AXES:
        status, body = client.post_json(
            "/v1/price", {"workload": PRICE_PAYLOAD["workload"],
                          "axes": axes})
        code = json.loads(body)["error"]["code"] if status == 400 else None
        check(code == "bad-axis-value",
              f"axes {str(axes)[:40]} -> {status} {code}, wanted 400 "
              f"bad-axis-value")
    status, _ = client.get("/v1/price")
    check(status == 405, f"GET /v1/price -> {status}, wanted 405")
    status, _ = client.get("/v1/nope")
    check(status == 404, f"unknown route -> {status}, wanted 404")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--ref", default=None, metavar="FILE",
                        help="pre-rendered `repro dse --format json` "
                             "report to compare the sweep body against "
                             "(default: render one now)")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    scratch = None
    if "REPRO_CACHE_DIR" not in env:
        scratch = tempfile.mkdtemp(prefix="repro-serve-smoke-")
        env["REPRO_CACHE_DIR"] = scratch
    env.setdefault("PYTHONPATH", "src")

    proc, port = boot_server(args.scale, env)
    client = ServerClient("127.0.0.1", port)
    try:
        wait_healthy(client)
        print(f"smoke: server healthy on port {port}")

        status, priced = client.post_json("/v1/price", PRICE_PAYLOAD)
        check(status == 200, f"/v1/price -> {status}, wanted 200")
        payload = json.loads(priced)
        check(payload["time_s"] > 0 and payload["energy_j"] > 0,
              f"degenerate price payload: {payload}")
        print(f"smoke: priced {payload['workload']} on "
              f"{payload['config']}")
        status, again = client.post_json("/v1/price", PRICE_PAYLOAD)
        check(status == 200 and again == priced,
              f"repeated /v1/price -> {status}, body "
              f"{'identical' if again == priced else 'differs'}; wanted "
              f"200 and the first body byte for byte")
        print("smoke: repeated price byte-identical")

        check_stampede("127.0.0.1", port)
        print(f"smoke: {STAMPEDE}-way stampede -> single-flight held")

        status, body = client.post_json(
            "/v1/sweep", {"axes": SWEEP_AXES, "format": "json"})
        check(status == 200, f"/v1/sweep -> {status}, wanted 200")
        reference = reference_sweep(args.scale, env, args.ref)
        check(body == reference,
              f"sweep body ({len(body)} bytes) differs from the CLI "
              f"report ({len(reference)} bytes): byte-identity broken")
        print(f"smoke: sweep byte-identical to CLI ({len(body)} bytes)")

        check_errors(client)
        print("smoke: error paths answered with intended statuses")

        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            raise SmokeFailure("server did not exit within 30s of "
                               "SIGTERM (leaked process)") from None
        check(code == 0, f"server exited {code} on SIGTERM, wanted 0")
        print("smoke: graceful SIGTERM shutdown, exit 0")
    except SmokeFailure as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
