"""A stdlib HTTP server for serve-mix's HTTP gauge (``serve_mix._HttpGauge``).

It answers every POST with the JSON body's ``inputs`` as ``outputs``, so a
round trip parses and writes JSON of a ``/run`` request's size over the same
``http.server`` and socket stack the kernel-service daemon uses, but runs
none of the system's code.  It prints its port on the first line of its
standard output and serves until it is killed::

    python3 perfbench/echo_server.py
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Echo(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        doc = json.loads(self.rfile.read(length))
        body = json.dumps({"outputs": doc.get("inputs"),
                           "cache_hit": True}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Echo)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
