"""Page metadata + structured-data extraction.

Reimplements, over the DOM-lite tree, the reference semantics of:

- ``ContentExtractor._extract_metadata``
  (/root/reference/services/scraper/scraper.py:354-483): title, description,
  og:* renamed to ogTitle/ogDescription/ogImage/ogUrl/ogSiteName/og:type/
  ogLocale/og{Prop}, twitter:* kept prefixed, canonical_url, favicon,
  viewport, language from <html lang>, charset, contentType, authors,
  summary, published_at (article:published_time / <time datetime>),
  categories (article:section|tag), site-id, app-version, author_images,
  docs-boost, fb:app_id.
- ``StructuredDataExtractor``
  (/root/reference/services/extractors/structured_data.py:11-147): jsonLd
  list (unparseable blocks skipped), openGraph map, twitterCard map, generic
  metaData map with a ``language`` fallback chain (<html lang> primary tag →
  content-language → name=language → og:locale → '').
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from .dom import Node

_AUTHOR_IMG_RE = re.compile(r"author|writer", re.I)

_OG_RENAMES = {
    "title": "ogTitle",
    "description": "ogDescription",
    "image": "ogImage",
    "url": "ogUrl",
    "site_name": "ogSiteName",
    "type": "og:type",
    "locale": "ogLocale",
}


_INDEXED = frozenset({"a", "meta", "link", "img", "time", "title", "html",
                      "script"})


class PageIndex:
    """One-pass index of the nodes the metadata/structured-data extractors
    probe, in document order — replaces ~20 full-tree ``find`` scans per
    page with a single traversal (each list preserves document order, so
    'first match' semantics are identical to repeated ``soup.find``).
    ``probes`` is the ``_MetaProbes`` of ``metas``, built on first use."""

    __slots__ = ("title", "html", "metas", "links", "times", "imgs",
                 "anchors", "ldjson", "probes")

    def __init__(self, root: Node) -> None:
        title = html = None
        metas: list[Node] = []
        links: list[Node] = []
        times: list[Node] = []
        imgs: list[Node] = []
        anchors: list[Node] = []
        ldjson: list[Node] = []
        # the pre-order walk of ``iter_elements``, inlined; one set lookup
        # passes over the text and the untracked tags
        stack = [root]
        while stack:
            node = stack.pop()
            tag = node.tag
            if tag in _INDEXED:
                if tag == "a":
                    anchors.append(node)
                elif tag == "meta":
                    metas.append(node)
                elif tag == "link":
                    links.append(node)
                elif tag == "img":
                    imgs.append(node)
                elif tag == "time":
                    times.append(node)
                elif tag == "title":
                    if title is None:
                        title = node
                elif tag == "html":
                    if html is None:
                        html = node
                elif node.get("type") == "application/ld+json":
                    ldjson.append(node)
            children = node.children
            if children:
                stack.extend(children[::-1])
        self.title: Optional[Node] = title
        self.html: Optional[Node] = html
        self.metas, self.links, self.times, self.imgs = metas, links, times, imgs
        self.anchors, self.ldjson = anchors, ldjson
        self.probes: Optional[_MetaProbes] = None

    def link(self, rel: str) -> Optional[Node]:
        for l in self.links:
            if l.get("rel") == rel:
                return l
        return None


class _MetaProbes:
    """Every ``<meta>`` lookup of the extractors, from one pass over a
    page's metas in document order. A meta's attributes are read into a
    dict that keeps each name's first value, as ``Node.get`` does.

    - ``by_name``, ``by_property``, ``by_equiv``: attribute value → the
      first meta whose ``name``, ``property`` or ``http-equiv`` is that
      value (its attribute dict);
    - ``charset``: the first meta with a ``charset`` attribute, or None;
    - ``og`` / ``twitter``: (key after the prefix, raw content) of each
      meta whose property starts ``og:`` / name starts ``twitter:``;
    - ``other``: (name or property, content) of each meta with both, and
      no ``og:`` or ``twitter:`` prefix."""

    __slots__ = ("by_name", "by_property", "by_equiv", "charset", "og",
                 "twitter", "other")

    def __init__(self, metas: list[Node]) -> None:
        by_name: dict[str, dict] = {}
        by_property: dict[str, dict] = {}
        by_equiv: dict[str, dict] = {}
        charset = None
        og: list[tuple[str, Optional[str]]] = []
        twitter: list[tuple[str, Optional[str]]] = []
        other: list[tuple[str, str]] = []
        for m in metas:
            if not m.attrs:
                continue
            a = dict(reversed(m.attrs))
            name = a.get("name")
            prop = a.get("property")
            content = a.get("content")
            if name is not None:
                if name not in by_name:
                    by_name[name] = a
                if name.startswith("twitter:"):
                    twitter.append((name.replace("twitter:", ""), content))
            if prop is not None:
                if prop not in by_property:
                    by_property[prop] = a
                if prop.startswith("og:"):
                    og.append((prop.replace("og:", ""), content))
            if "http-equiv" in a:
                by_equiv.setdefault(a["http-equiv"], a)
            if charset is None and "charset" in a:
                charset = a
            key = name or prop
            if key and content and not key.startswith(("og:", "twitter:")):
                other.append((key, content))
        self.by_name, self.by_property, self.by_equiv = (
            by_name, by_property, by_equiv)
        self.charset, self.og, self.twitter, self.other = (
            charset, og, twitter, other)


def _index(root) -> PageIndex:
    return root if isinstance(root, PageIndex) else PageIndex(root)


def _probes(idx: PageIndex) -> _MetaProbes:
    if idx.probes is None:
        idx.probes = _MetaProbes(idx.metas)
    return idx.probes


def _content(tag) -> str:
    """A probed tag's stripped ``content`` ('' when absent)."""
    return (tag.get("content") or "").strip()


def extract_metadata(root) -> dict[str, str]:
    """Reference scraper.py:354-483 semantics (accepts Node or PageIndex)."""
    idx = _index(root)
    pr = _probes(idx)
    by_name, by_property = pr.by_name, pr.by_property
    md: dict[str, str] = {}

    if idx.title is not None:
        md["title"] = idx.title.get_text().strip()

    desc = by_name.get("description")
    if desc is not None:
        md["description"] = _content(desc)

    for p, content in pr.og:
        content = (content or "").strip()
        if p and content:
            md[_OG_RENAMES.get(p, f"og{p.capitalize()}")] = content

    for n, content in pr.twitter:
        content = (content or "").strip()
        if n and content:
            md[f"twitter:{n}"] = content

    canonical = idx.link("canonical")
    if canonical is not None:
        md["canonical_url"] = (canonical.get("href") or "").strip()

    favicon = idx.link("icon") or idx.link("shortcut icon")
    if favicon is not None:
        md["favicon"] = (favicon.get("href") or "").strip()

    viewport = by_name.get("viewport")
    if viewport is not None:
        md["viewport"] = _content(viewport)

    if idx.html is not None and idx.html.get("lang"):
        md["language"] = idx.html.get("lang")  # full value, not primary subtag

    if pr.charset is not None:
        md["charset"] = (pr.charset.get("charset") or "").strip()

    ctype = pr.by_equiv.get("content-type")
    if ctype is not None:
        md["contentType"] = _content(ctype)

    author = by_name.get("author")
    if author is not None:
        md["authors"] = _content(author)

    summary = by_name.get("summary")
    if summary is not None:
        md["summary"] = _content(summary)

    pub = (by_property.get("article:published_time")
           or by_name.get("article:published_time")
           or next((t for t in idx.times if t.get("datetime") is not None), None))
    if pub is not None:
        if pub.get("content"):
            md["published_at"] = _content(pub)
        elif pub.get("datetime"):
            md["published_at"] = (pub.get("datetime") or "").strip()

    category = (by_property.get("article:section")
                or by_name.get("article:section")
                or by_property.get("article:tag"))
    if category is not None:
        md["categories"] = _content(category)

    for meta_name in ("site-id", "app-version", "docs-boost"):
        tag = by_name.get(meta_name)
        if tag is not None:
            md[meta_name] = _content(tag)

    author_img = next(
        (im for im in idx.imgs
         if im.get("alt") is not None and _AUTHOR_IMG_RE.search(im.get("alt"))),
        None)
    if author_img is not None:
        md["author_images"] = (author_img.get("src") or "").strip()

    fb = by_property.get("fb:app_id")
    if fb is not None:
        md["fb:app_id"] = _content(fb)

    return md


def extract_language(root) -> str:
    """Reference structured_data.py:11-38 fallback chain; '' when absent."""
    idx = _index(root)
    if idx.html is not None and idx.html.get("lang"):
        return (idx.html.get("lang") or "").split("-")[0]
    pr = _probes(idx)
    for tag in (pr.by_equiv.get("content-language"),
                pr.by_name.get("language"),
                pr.by_property.get("og:locale")):
        if tag is not None and tag.get("content"):
            lang = (tag.get("content") or "").split("_")[0]
            if lang:
                return lang
    return ""


def extract_json_ld(root) -> list[Any]:
    """Reference structured_data.py:40-53: parse every
    <script type="application/ld+json">, skipping unparseable blocks."""
    idx = _index(root)
    out: list[Any] = []
    for script in idx.ldjson:
        try:
            out.append(json.loads(script.get_text()))
        except (json.JSONDecodeError, TypeError):
            continue
    return out


def extract_open_graph(root) -> dict[str, str]:
    """Reference structured_data.py:55-67 (no renaming; raw prop -> content)."""
    return {p: content for p, content in _probes(_index(root)).og
            if p and content}


def extract_twitter_cards(root) -> dict[str, str]:
    """Reference structured_data.py:69-81."""
    return {n: content for n, content in _probes(_index(root)).twitter
            if n and content}


def extract_meta_data(root) -> dict[str, str]:
    """Reference structured_data.py:83-101: all other <meta name/property>
    pairs plus the mandatory ``language`` key."""
    idx = _index(root)
    md = dict(_probes(idx).other)
    md["language"] = extract_language(idx) or ""
    return md


def extract_structured(root) -> dict[str, Any]:
    """The full StructuredData shape (structured_data.py:103-147)."""
    idx = _index(root)
    return {
        "jsonLd": extract_json_ld(idx),
        "openGraph": extract_open_graph(idx),
        "twitterCard": extract_twitter_cards(idx),
        "metaData": extract_meta_data(idx),
    }
