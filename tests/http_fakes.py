"""HTTP doubles for the SPARQL, chat and embedding clients: a response
with a status and a JSON body, a 200 whose body does not decode, and a
session that answers each POST from a script and records it."""

import requests

# bodies that do not decode: an HTML page, as a proxy's error page would
# be, and an array nested deeper than the JSON decoder recurses
NOT_JSON = (b"<html>busy</html>", b"[" * 200_000 + b"]" * 200_000)

# a body each of the three clients accepts
ACCEPTED_BY_ALL = {"results": {"bindings": []},
                   "choices": [{"message": {"content": "ok"}}],
                   "data": [{"embedding": [1.0, 0.0]}]}


class Reply:
    """A response with `status_code` whose body decodes to `payload`."""

    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = {} if payload is None else payload

    def json(self):
        return self._payload


def not_json(body=NOT_JSON[0]):
    """A 200 whose body is `body`."""
    response = requests.Response()
    response.status_code = 200
    response._content = body
    return response


class ScriptedSession:
    """Answers each POST with the next of `outcomes`, raising it if it is
    an exception. `requests` holds each request's URL and keywords."""

    def __init__(self, outcomes=()):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, **kwargs):
        self.requests.append({"url": url, **kwargs})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def scripted(make, url, outcomes, **kwargs):
    """The client `make(url, ...)` on a ScriptedSession of `outcomes`,
    that session, and the list its sleeps are recorded in."""
    session = ScriptedSession(outcomes)
    sleeps = []
    client = make(url, session=session, sleep=sleeps.append, **kwargs)
    return client, session, sleeps
