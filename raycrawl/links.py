"""Link extraction with the reference's filter semantics, determinized.

Reimplements ``LinkExtractor``
(/root/reference/services/crawler/link_extractor.py:10-126): normalize each
<a href> against the page URL, keep only same-netloc URLs, apply exclude
then include regex filters, then the robots gate. The reference returns a
``Set[str]`` whose iteration order depends on PYTHONHASHSEED (SURVEY.md Q1);
this engine's spec enumerates links in **document order, first occurrence
wins**, which is the order the conformance oracle is defined in.
"""

from __future__ import annotations

import re
from typing import Callable, Optional
from urllib.parse import urlparse

from .html.dom import Node, parse_html
from .urlnorm import normalize_url

# an http(s) url's netloc: the text between '//' and the first '/', '?' or
# '#'. urlsplit removes '\t\r\n' before it splits and checks '[...]' hosts,
# so a netloc holding any of those does not match and takes urlparse
_HTTP_NETLOC = re.compile(r"https?://([^/?#\[\]\t\r\n]*)(?=[/?#]|\Z)")


def _netloc(url: str) -> str:
    """``urlparse(url).netloc``, read off the string for an http(s) url.
    A non-ASCII netloc takes urlparse too: its NFKC check may raise."""
    m = _HTTP_NETLOC.match(url)
    if m is not None:
        netloc = m.group(1)
        if netloc.isascii():
            return netloc
    return urlparse(url).netloc


class LinkFilter:
    """Compiled predicate matching link_extractor.py:69-92 (minus robots,
    which the frontier owns per-host)."""

    def __init__(
        self,
        base_domain: "str | set[str] | frozenset[str] | list[str]",
        exclude_patterns: Optional[list[str]] = None,
        include_patterns: Optional[list[str]] = None,
    ) -> None:
        # single seed (reference semantics) or a seed-host set (multi-seed
        # generalization of the same-netloc rule, north_star "seed list")
        if isinstance(base_domain, str):
            self.domains = frozenset({base_domain})
        else:
            self.domains = frozenset(base_domain)
        self.exclude = [re.compile(p) for p in (exclude_patterns or [])]
        self.include = [re.compile(p) for p in (include_patterns or [])]

    def __call__(self, url: str) -> bool:
        if _netloc(url) not in self.domains:
            return False
        for pat in self.exclude:
            if pat.search(url):
                return False
        if self.include:
            return any(pat.search(url) for pat in self.include)
        return True


def extract_links(
    html: str,
    base_url: str,
    link_filter: Optional[Callable[[str], bool]] = None,
) -> list[str]:
    """All admissible links of a page, document order, page-local first-wins
    dedup (link_extractor.py:94-126 + Q1 resolution)."""
    root = parse_html(html)
    return extract_links_from_tree(root, base_url, link_filter)


def extract_links_from_tree(
    root: Node,
    base_url: str,
    link_filter: Optional[Callable[[str], bool]] = None,
) -> list[str]:
    return extract_links_from_anchors(
        root.find_all("a", href=True), base_url, link_filter)


def extract_links_from_anchors(
    anchors: list[Node],
    base_url: str,
    link_filter: Optional[Callable[[str], bool]] = None,
) -> list[str]:
    return links_from_anchors(anchors, HrefMemo(base_url), link_filter)


class HrefMemo(dict):
    """href → ``normalize_url(href, base_url)``, computed on first lookup.
    One per page lets every link list of the page share one normalization
    per distinct href."""

    __slots__ = ("base_url",)

    def __init__(self, base_url: str) -> None:
        super().__init__()
        self.base_url = base_url

    def __missing__(self, href: str) -> Optional[str]:
        normalized = self[href] = normalize_url(href, self.base_url)
        return normalized


def links_from_anchors(
    anchors: list[Node],
    normalized: HrefMemo,
    link_filter: Optional[Callable[[str], bool]] = None,
) -> list[str]:
    """The admissible links of ``anchors`` (document order, first wins),
    normalized through ``normalized``."""
    seen: set[str] = set()
    out: list[str] = []
    for a in anchors:
        href = a.get("href")
        if href is None:
            continue
        url = normalized[href]
        if not url or url in seen:
            continue
        seen.add(url)
        if link_filter is None or link_filter(url):
            out.append(url)
    return out
