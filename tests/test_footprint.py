"""The gateway process loads no HTTP client library, no TLS and no simulator.

The health endpoint is plain HTTP/1.0 on a stdlib socket server, and the
code paths that need ``requests`` (HTTP sink, webhook notifier, HTTP poll,
``gateway stats --url``) import it when they first run. A module-level
import of any of them would map libssl and libcrypto into every gateway,
which this test catches. The simulators (:mod:`telegw.sim`) are for
``gateway simulate`` and the tests only; the config types a simulated fleet
is parsed into live in :mod:`telegw.config`. The test runs in a fresh
interpreter, since the test process itself has long since imported
``requests`` and the simulators.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_LOADED = ("ssl", "http.client", "http.server", "requests", "urllib3", "email")

CHILD = textwrap.dedent(
    """
    import socket, sys, textwrap
    from pathlib import Path

    import telegw.cli
    from telegw.config import load_config
    from telegw.daemon import Gateway
    from telegw.model import DataPoint, Value

    tmp = Path(sys.argv[1])
    config = tmp / "gw.yaml"
    config.write_text(textwrap.dedent(f'''
        gateway: {{health_port: 0}}
        sink: {{mode: file, path: {tmp}/out.lp}}
        alerts:
          rules:
            - {{id: hot, parameter: t, predicate: gt, threshold: 30}}
          notifiers:
            - type: log
    '''))
    gw = Gateway(load_config(str(config))).start()
    try:
        # fires the rule, so the log notifier and the file sink both run
        gw.pipeline.submit(DataPoint("room-1", "t", Value.real(40.0), "C", 1, {}))
        with socket.create_connection(("127.0.0.1", gw.health_port), timeout=5) as s:
            s.sendall(b"GET /health HTTP/1.0\\r\\n\\r\\n")
            reply = b""
            while chunk := s.recv(65536):
                reply += chunk
    finally:
        gw.stop()
    assert reply.startswith(b"HTTP/1.0 200 "), reply[:80]
    assert (tmp / "out.lp").read_text().startswith("t,device=room-1 value=40")
    print(" ".join(name for name in sys.modules))
    """
)


def test_gateway_process_loads_no_http_client_or_tls(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "telegw.daemon" in loaded
    assert [name for name in NOT_LOADED if name in loaded] == []
    assert sorted(name for name in loaded if name.split(".")[:2] == ["telegw", "sim"]) == []
