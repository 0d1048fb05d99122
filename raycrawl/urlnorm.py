"""URL normalization, canonicalization and SHA-1 keying.

``normalize_url`` reproduces the reference's link normalization
(/root/reference/services/crawler/link_extractor.py:48-67): resolve against
the base URL, strip fragment + params + query.

``canonicalize`` extends that to the full canonical form the frontier keys
on (BASELINE.json north_star): lowercase scheme/host, default-port strip,
percent-encoding normalization, empty-path → '/'. ``url_key`` is the 20-byte
SHA-1 of the canonical form — the identity used by the cuckoo-filter seen
set at 10^10-URL scale.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from typing import Optional
from urllib.parse import quote, urljoin, urlparse

_DEFAULT_PORTS = {"http": 80, "https": 443, "ftp": 21, "ws": 80, "wss": 443}
_HOSTPORT_RE = re.compile(r"^(?P<host>\[[^\]]*\]|[^:]*)(?::(?P<port>\d+))?$")

# normalize_url's fast path. A root-relative href whose segments hold only
# unreserved, sub-delim (but ';'), ':' and '@' characters, with no '.' or
# '..' segment and no leading '//', resolves against an http(s) origin to
# origin + href: urljoin has no dot segment to remove and the href has no
# params, query or fragment to strip. The origin must be a lower-case
# scheme and a plain host[:port], which urljoin passes through unchanged
_PLAIN_ROOT_PATH = re.compile(r"(?!//)(?:/(?!\.\.?(?:/|\Z))[A-Za-z0-9\-._~!$&'()*+,=:@]*)+")
_HTTP_ORIGIN = re.compile(r"https?://[A-Za-z0-9.-]+(?::[0-9]+)?(?=[/?#]|\Z)")

_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")
_HEX = set("0123456789abcdefABCDEF")


def _normalize_pct(path: str) -> str:
    """RFC 3986 §6.2.2.2 percent-encoding normalization: decode ONLY
    escapes of unreserved characters, uppercase the hex of every other
    escape, and leave reserved escapes (%2F etc.) encoded — so /a%2Fb and
    /a/b stay distinct URLs (ADVICE fix: quote(unquote(...)) conflated
    them). Malformed '%' sequences pass through as literals."""
    out: list[str] = []
    i, n = 0, len(path)
    while i < n:
        c = path[i]
        if c == "%" and i + 2 < n and path[i + 1] in _HEX and path[i + 2] in _HEX:
            ch = chr(int(path[i + 1 : i + 3], 16))
            if ch in _UNRESERVED:
                out.append(ch)
            else:
                out.append("%" + path[i + 1 : i + 3].upper())
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def normalize_url(url: str, base_url: str) -> Optional[str]:
    """Reference link_extractor.py:48-67: absolute form, no fragment/params/query."""
    if _PLAIN_ROOT_PATH.fullmatch(url):
        origin = _HTTP_ORIGIN.match(base_url)
        if origin:
            return origin.group() + url
    try:
        absolute = urljoin(base_url, url)
        parsed = urlparse(absolute)
        return parsed._replace(fragment="", params="", query="").geturl()
    except ValueError:
        return None


@lru_cache(maxsize=1 << 16)
def canonicalize(url: str) -> str:
    """Canonical URL form used for dedup keys.

    Lowercases scheme and host, strips default ports, drops fragment/params/
    query (matching the reference's normalization), normalizes percent-
    encoding of the path (unreserved chars decoded, everything re-quoted with
    a stable safe set), and maps an empty path to '/'.
    """
    parsed = urlparse(url)
    scheme = parsed.scheme.lower()
    netloc = parsed.netloc
    m = _HOSTPORT_RE.match(netloc)
    if m:
        host = m.group("host").lower()
        port = m.group("port")
        if port is not None and _DEFAULT_PORTS.get(scheme) == int(port):
            netloc = host
        elif port is not None:
            netloc = f"{host}:{port}"
        else:
            netloc = host
    else:
        netloc = netloc.lower()
    path = parsed.path or "/"
    # percent-normalize existing escapes per RFC 3986, then quote any raw
    # characters that must be escaped ('%' is in the safe set so normalized
    # escapes — and literal malformed '%' — pass through untouched);
    # escape-free paths (the overwhelming majority) skip the char loop
    if "%" in path:
        path = _normalize_pct(path)
    path = quote(path, safe="%/:@!$&'()*+,;=~-._")
    return parsed._replace(
        scheme=scheme, netloc=netloc, path=path, params="", query="", fragment=""
    ).geturl()


@lru_cache(maxsize=1 << 16)
def url_key(url: str) -> bytes:
    """20-byte SHA-1 of the canonical URL (north_star key scheme)."""
    return hashlib.sha1(canonicalize(url).encode("utf-8")).digest()


@lru_cache(maxsize=1 << 16)
def host_of(url: str) -> str:
    return urlparse(url).netloc.lower()


def host_shard(host: str, num_shards: int) -> int:
    """Stable host-hash shard assignment (frontier partitioning key).

    Uses SHA-1 (not Python ``hash``) so shard routing is identical across
    processes, nodes and runs.
    """
    return int.from_bytes(hashlib.sha1(host.encode("utf-8")).digest()[:8], "big") % num_shards
