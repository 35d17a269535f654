"""Chat-completion wire adapters (JSON over HTTP).

Request:  {"model": ..., "messages": [{"role": ..., "content": ...}],
           "temperature": ..., "max_tokens": ...}
Response: {"choices": [{"message": {"content": ...}}],
           "usage": {"prompt_tokens": ..., "completion_tokens": ...}}
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from random import Random
from time import sleep

from ..config import AdapterEndpoint
from ..jsonio import as_int, loads
from ..problem import ProblemSpec
from .base import AdapterError, AgentRequest, AgentResponse, TokenUsage

# The wait before retry k (k = 0 for the second attempt) is a uniform draw in
# [0, min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**k)]: exponential backoff with
# full jitter, so clients that failed together do not retry together.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 4.0
_JITTER = Random()


class _ChatClient:
    def __init__(self, endpoint: AdapterEndpoint):
        # urllib would also open file: and ftp: urls; an endpoint is http(s).
        if not (endpoint.url or "").lower().startswith(("http://", "https://")):
            raise AdapterError(f"remote adapter requires an http(s) endpoint url, "
                               f"not {endpoint.url!r}")
        self._endpoint = endpoint

    def complete(self, messages: list[dict]) -> AgentResponse:
        payload = {
            "model": self._endpoint.model or "default",
            "messages": messages,
            "temperature": self._endpoint.temperature,
            "max_tokens": self._endpoint.max_tokens,
        }
        data = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = self._endpoint.resolve_api_key()
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = self._endpoint.retries + 1
        last_error: Exception | None = None
        backoff_s = _BACKOFF_BASE_S
        for attempt in range(attempts):
            if attempt:
                sleep(_JITTER.uniform(0, backoff_s))
                backoff_s = min(_BACKOFF_CAP_S, 2 * backoff_s)
            try:
                status, body = self._post(data, headers)
            except (OSError, http.client.HTTPException) as exc:  # transport, timeouts
                last_error = exc
                continue
            if status >= 500 or status == 429:  # a server fault, or rate limiting
                last_error = AdapterError(f"HTTP {status} from {self._endpoint.url}")
                continue
            text = body.decode("utf-8", "replace")
            if status != 200:
                raise AdapterError(f"request rejected ({status}): {text[:200]}")
            return self._parse(text)
        raise AdapterError(
            f"no response from {self._endpoint.url} after {attempts} attempts: {last_error}"
        )

    def _post(self, data: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One attempt on a connection of its own: (status, body)."""
        request = urllib.request.Request(self._endpoint.url, data=data, headers=headers,
                                         method="POST")
        try:
            with urllib.request.urlopen(request, timeout=self._endpoint.timeout_s) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:  # a status outside 2xx
            with exc:
                return exc.code, exc.read()

    @staticmethod
    def _parse(body: str) -> AgentResponse:
        """The reply's text and token counts; an absent or null usage counts zero."""
        try:
            data = loads(body, "response body")
            content = data["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
            usage = data.get("usage")
            if usage is None:
                usage = {}
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {type(usage).__name__}, not an object")
            prompt, completion = (as_int(usage.get(key, 0))
                                  for key in ("prompt_tokens", "completion_tokens"))
            if prompt < 0 or completion < 0:
                raise ValueError(f"negative token count in {usage}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise AdapterError(f"malformed completion response: {exc}") from exc
        return AgentResponse(content=content, usage=TokenUsage(prompt_tokens=prompt,
                                                               completion_tokens=completion))


class RemotePolicy(_ChatClient):
    """The orchestrator policy served by a chat-completion endpoint."""

    def __init__(self, endpoint: AdapterEndpoint, *, system: str | None = None):
        super().__init__(endpoint)
        self._system = system

    def generate(self, problem: ProblemSpec, history_prompt: str) -> AgentResponse:
        messages: list[dict] = []
        if self._system:
            messages.append({"role": "system", "content": self._system})
        messages.append({"role": "user", "content": history_prompt})
        return self.complete(messages)


class RemoteRoleBackend(_ChatClient):
    """Role agents served by a chat-completion endpoint.

    Each in-view message is sent as its own user turn, tagged with its source,
    so the server sees exactly what the agent is allowed to see.
    """

    def respond(self, request: AgentRequest) -> AgentResponse:
        messages = [{"role": "system", "content": request.system}]
        for part in request.messages:
            messages.append({"role": "user", "content": f"[{part.source}] {part.content}"})
        return self.complete(messages)
