"""The per-page extraction kernel against a frozen copy of its multi-walk
form.

The reference below is the kernel as it stood before the walks were fused:
the regex tokenizer, ``clean_tree`` as four passes of
``find_all``/``iter``/``decompose``, ``find_main_content`` as five ``find``
calls plus a ``get_text`` per fallback container, a deep copy of the main
subtree, image enhancement and ``<body>`` lookup as two more walks, and
each link list normalized on its own. The metadata probes (``PageIndex``
with one ``meta()`` scan per probe), the serializer (an ``escape`` call
per text node and attribute value), the markdown post-process (every
regex pass tried at every character) and the crawl's batch kernel (a row
dict per page, five JSON encodes, a transpose) are frozen too.
``extract_page`` must give the same output on any page, and
``PageExtractor`` and ``WaveExtractor`` the same tables on the benchmark's
corpus shapes.
"""

from __future__ import annotations

import gc
import json
import re
from html import escape, unescape

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raycrawl.extract
from raycrawl.extract import (PageExtractor, decode_html, error_row,
                              extract_page, page_row, rows_table)
from raycrawl.fixtures import feature_corpus
from raycrawl.html import markdown
from raycrawl.html.clean import find_main_content
from raycrawl.html.dom import COMMENT, TEXT, VOID_TAGS, Node, _fast_parse
from raycrawl.html.markdown import post_process_markdown
from raycrawl.html.metadata import (PageIndex, extract_metadata,
                                    extract_structured)
from raycrawl.pipeline import WAVE_COLUMNS, WaveExtractor
from raycrawl.schema import PAGES
from raycrawl.urlnorm import canonicalize, host_of, normalize_url, url_key

# ---------------------------------------------------------------------------
# frozen reference: the tokenizer
# ---------------------------------------------------------------------------

_REF_IMPLICIT_CLOSE = {
    "li": {"li"},
    "p": {"p", "div", "section", "article", "ul", "ol", "table", "blockquote",
          "pre", "h1", "h2", "h3", "h4", "h5", "h6", "main", "aside", "nav",
          "header", "footer"},
    "td": {"td", "th", "tr"},
    "th": {"td", "th", "tr"},
    "tr": {"tr"},
    "option": {"option"},
}
_REF_TOKEN_RE = re.compile(
    r"<(?:"
    r"!--(?P<comment>.*?)--\s*>"
    r"|(?P<decl>![^>]*)>"
    r"|\?(?P<pi>[^>]*)>"
    r"|/(?P<end>[a-zA-Z][^\s>]*)\s*>"
    r"|(?P<start>[a-zA-Z][^\s/>]*)(?P<attrs>(?:\"[^\"]*\"|'[^']*'|[^>])*?)(?P<selfclose>/?)>"
    r")",
    re.DOTALL,
)
_REF_ATTR_RE = re.compile(
    r"([^\s=/>]+)(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]*)))?"
)
_REF_RAWTEXT = frozenset({"script", "style"})
_REF_RAWTEXT_CLOSE = {t: re.compile(rf"</{t}\s*>", re.IGNORECASE)
                      for t in _REF_RAWTEXT}


def _ref_fast_parse(html: str) -> Node:
    root = Node("#document")
    stack = [root]
    pos = 0
    n = len(html)
    while pos < n:
        m = _REF_TOKEN_RE.search(html, pos)
        if m is None:
            text = html[pos:]
            if text:
                stack[-1].append(
                    Node(TEXT, text=unescape(text) if "&" in text else text))
            break
        if m.start() > pos:
            text = html[pos : m.start()]
            stack[-1].append(
                Node(TEXT, text=unescape(text) if "&" in text else text))
        pos = m.end()
        if m.group("comment") is not None:
            stack[-1].append(Node(COMMENT, text=m.group("comment")))
            continue
        if m.group("decl") is not None or m.group("pi") is not None:
            continue
        end = m.group("end")
        if end is not None:
            tag = end.lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
            continue
        tag = m.group("start").lower()
        attrs_s = m.group("attrs") or ""
        attrs: list[tuple[str, str]] = []
        if attrs_s.strip():
            for am in _REF_ATTR_RE.finditer(attrs_s):
                val = am.group(2)
                if val is None:
                    val = am.group(3)
                if val is None:
                    val = am.group(4)
                if val is None:
                    val = ""
                attrs.append((am.group(1).lower(),
                              unescape(val) if "&" in val else val))
        while len(stack) > 1:
            open_tag = stack[-1].tag
            if (open_tag in _REF_IMPLICIT_CLOSE
                    and tag in _REF_IMPLICIT_CLOSE[open_tag]):
                stack.pop()
            else:
                break
        node = Node(tag, None)
        node.attrs = attrs
        stack[-1].append(node)
        if m.group("selfclose") == "/" or tag in VOID_TAGS:
            continue
        if tag in _REF_RAWTEXT:
            cm = _REF_RAWTEXT_CLOSE[tag].search(html, pos)
            raw_end = cm.start() if cm else n
            raw = html[pos:raw_end]
            if raw:
                node.append(Node(TEXT, text=raw))
            pos = cm.end() if cm else n
            continue
        stack.append(node)
    return root


# ---------------------------------------------------------------------------
# frozen reference: main content, copy, clean, markdown prologue, links
# ---------------------------------------------------------------------------

_REF_CONTENT_RE = re.compile(r"content|main|article", re.I)
_REF_ALLOWED_ATTRS = frozenset(
    {"href", "src", "alt", "title", "class", "id", "role", "type", "rel",
     "target"})


def _ref_find_main_content(root: Node):
    hit = root.find("main")
    if hit is None:
        hit = root.find("article")
    if hit is None:
        hit = root.find("div", id=lambda v: v is not None
                        and _REF_CONTENT_RE.search(v))
    if hit is None:
        hit = root.find("div", **{"class": lambda v: v is not None
                                  and _REF_CONTENT_RE.search(v)})
    if hit is None:
        hit = root.find("div", role="main")
    if hit is not None:
        return hit
    containers = root.find_all(("div", "section"))
    if containers:
        return max(containers, key=lambda n: len(n.get_text()))
    return None


def _ref_copy(node: Node) -> Node:
    n = Node.__new__(Node)
    n.tag = node.tag
    n.attrs = list(node.attrs)
    n.text = node.text
    n.children = []
    for c in node.children:
        n.children.append(_ref_copy(c))
    return n


def _ref_parents(root: Node) -> dict[int, Node]:
    """id(node) → its parent, for every node under ``root``."""
    parents = {}
    for node in root.iter():
        for c in node.children:
            parents[id(c)] = node
    return parents


def _ref_decompose(node: Node, parents: dict[int, Node]) -> None:
    """The frozen kernel's ``decompose``: detach ``node`` (and its
    subtree) from its parent, found in ``parents`` since nodes hold no
    parent link."""
    parent = parents.pop(id(node), None)
    if parent is not None:
        parent.children = [c for c in parent.children if c is not node]


def _ref_clean_tree(root: Node) -> Node:
    parents = _ref_parents(root)
    for node in root.find_all(("script", "style", "iframe", "noscript")):
        _ref_decompose(node, parents)
    for node in list(root.iter()):
        if node.tag == COMMENT:
            _ref_decompose(node, parents)
    for node in root.find_all(("nav", "footer", "header")):
        if node.find(("main", "article", "section")) is None:
            _ref_decompose(node, parents)
    for node in root.iter_elements():
        if node.attrs:
            node.attrs = [
                (k, v) for k, v in node.attrs
                if k in _REF_ALLOWED_ATTRS or k.startswith("data-")
                or k.startswith("aria-")]
    return root


def _ref_to_markdown_tree(root: Node) -> str:
    for img in root.find_all("img"):
        if not img.get("alt"):
            img.set("alt", "Image")
        src = img.get("src") or ""
        if src and not img.get("title"):
            img.set("title", src.split("/")[-1].split("?")[0])
    body = root.find("body") or root
    r = markdown._Renderer()
    r.children_as_blocks(body)
    return "\n\n".join(b for b in r.blocks if b) + "\n"


def _ref_links(anchors: list[Node], base_url: str) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for a in anchors:
        href = a.get("href")
        if href is None:
            continue
        normalized = normalize_url(href, base_url)
        if not normalized or normalized in seen:
            continue
        seen.add(normalized)
        out.append(normalized)
    return out


# ---------------------------------------------------------------------------
# frozen reference: metadata probes, serializer, post-process
# ---------------------------------------------------------------------------

_REF_AUTHOR_IMG_RE = re.compile(r"author|writer", re.I)
_REF_OG_RENAMES = {
    "title": "ogTitle", "description": "ogDescription", "image": "ogImage",
    "url": "ogUrl", "site_name": "ogSiteName", "type": "og:type",
    "locale": "ogLocale",
}


class _RefPageIndex:
    def __init__(self, root: Node) -> None:
        self.title = None
        self.html = None
        self.metas: list[Node] = []
        self.links: list[Node] = []
        self.times: list[Node] = []
        self.imgs: list[Node] = []
        self.anchors: list[Node] = []
        self.ldjson: list[Node] = []
        for node in root.iter_elements():
            tag = node.tag
            if tag == "meta":
                self.metas.append(node)
            elif tag == "a":
                self.anchors.append(node)
            elif tag == "link":
                self.links.append(node)
            elif tag == "img":
                self.imgs.append(node)
            elif tag == "time":
                self.times.append(node)
            elif tag == "title":
                if self.title is None:
                    self.title = node
            elif tag == "html":
                if self.html is None:
                    self.html = node
            elif tag == "script" and node.get("type") == "application/ld+json":
                self.ldjson.append(node)

    def meta(self, **attrs):
        for m in self.metas:
            ok = True
            for k, want in attrs.items():
                got = m.get(k)
                if want is True:
                    ok = got is not None
                elif got != want:
                    ok = False
                if not ok:
                    break
            if ok:
                return m
        return None

    def link(self, rel: str):
        for l in self.links:
            if l.get("rel") == rel:
                return l
        return None


def _ref_extract_metadata(idx: _RefPageIndex) -> dict:
    md: dict[str, str] = {}
    if idx.title is not None:
        md["title"] = idx.title.get_text().strip()
    desc = idx.meta(name="description")
    if desc is not None:
        md["description"] = (desc.get("content") or "").strip()
    for tag in idx.metas:
        prop = tag.get("property") or ""
        if prop.startswith("og:"):
            p = prop.replace("og:", "")
            content = (tag.get("content") or "").strip()
            if p and content:
                md[_REF_OG_RENAMES.get(p, f"og{p.capitalize()}")] = content
    for tag in idx.metas:
        name = tag.get("name") or ""
        if name.startswith("twitter:"):
            n = name.replace("twitter:", "")
            content = (tag.get("content") or "").strip()
            if n and content:
                md[f"twitter:{n}"] = content
    canonical = idx.link("canonical")
    if canonical is not None:
        md["canonical_url"] = (canonical.get("href") or "").strip()
    favicon = idx.link("icon") or idx.link("shortcut icon")
    if favicon is not None:
        md["favicon"] = (favicon.get("href") or "").strip()
    viewport = idx.meta(name="viewport")
    if viewport is not None:
        md["viewport"] = (viewport.get("content") or "").strip()
    if idx.html is not None and idx.html.get("lang"):
        md["language"] = idx.html.get("lang")
    charset = idx.meta(charset=True)
    if charset is not None:
        md["charset"] = (charset.get("charset") or "").strip()
    ctype = idx.meta(**{"http-equiv": "content-type"})
    if ctype is not None:
        md["contentType"] = (ctype.get("content") or "").strip()
    author = idx.meta(name="author")
    if author is not None:
        md["authors"] = (author.get("content") or "").strip()
    summary = idx.meta(name="summary")
    if summary is not None:
        md["summary"] = (summary.get("content") or "").strip()
    pub = (idx.meta(property="article:published_time")
           or idx.meta(name="article:published_time")
           or next((t for t in idx.times if t.get("datetime") is not None),
                   None))
    if pub is not None:
        if pub.get("content"):
            md["published_at"] = (pub.get("content") or "").strip()
        elif pub.get("datetime"):
            md["published_at"] = (pub.get("datetime") or "").strip()
    category = (idx.meta(property="article:section")
                or idx.meta(name="article:section")
                or idx.meta(property="article:tag"))
    if category is not None:
        md["categories"] = (category.get("content") or "").strip()
    for meta_name, key in (("site-id", "site-id"),
                           ("app-version", "app-version"),
                           ("docs-boost", "docs-boost")):
        tag = idx.meta(name=meta_name)
        if tag is not None:
            md[key] = (tag.get("content") or "").strip()
    author_img = next(
        (im for im in idx.imgs
         if im.get("alt") is not None
         and _REF_AUTHOR_IMG_RE.search(im.get("alt"))),
        None)
    if author_img is not None:
        md["author_images"] = (author_img.get("src") or "").strip()
    fb = idx.meta(property="fb:app_id")
    if fb is not None:
        md["fb:app_id"] = (fb.get("content") or "").strip()
    return md


def _ref_extract_language(idx: _RefPageIndex) -> str:
    if idx.html is not None and idx.html.get("lang"):
        return (idx.html.get("lang") or "").split("-")[0]
    for finder in (
        lambda: idx.meta(**{"http-equiv": "content-language"}),
        lambda: idx.meta(name="language"),
        lambda: idx.meta(property="og:locale"),
    ):
        tag = finder()
        if tag is not None and tag.get("content"):
            lang = (tag.get("content") or "").split("_")[0]
            if lang:
                return lang
    return ""


def _ref_extract_structured(idx: _RefPageIndex) -> dict:
    json_ld: list = []
    for script in idx.ldjson:
        try:
            json_ld.append(json.loads(script.get_text()))
        except (json.JSONDecodeError, TypeError):
            continue
    og: dict[str, str] = {}
    for tag in idx.metas:
        prop = tag.get("property") or ""
        if prop.startswith("og:"):
            p = prop.replace("og:", "")
            content = tag.get("content")
            if p and content:
                og[p] = content
    tw: dict[str, str] = {}
    for tag in idx.metas:
        name = tag.get("name") or ""
        if name.startswith("twitter:"):
            n = name.replace("twitter:", "")
            content = tag.get("content")
            if n and content:
                tw[n] = content
    md: dict[str, str] = {}
    for tag in idx.metas:
        name = tag.get("name") or tag.get("property")
        content = tag.get("content")
        if name and content and not name.startswith(("og:", "twitter:")):
            md[name] = content
    md["language"] = _ref_extract_language(idx) or ""
    return {"jsonLd": json_ld, "openGraph": og, "twitterCard": tw,
            "metaData": md}


def _ref_serialize(node: Node, out: list[str]) -> None:
    if node.tag == TEXT:
        out.append(escape(node.text, quote=False))
        return
    if node.tag == COMMENT:
        out.append(f"<!--{node.text}-->")
        return
    if node.tag == "#document":
        for c in node.children:
            _ref_serialize(c, out)
        return
    attr_s = "".join(f' {k}="{escape(v)}"' for k, v in node.attrs)
    if node.tag in VOID_TAGS:
        out.append(f"<{node.tag}{attr_s}/>")
        return
    out.append(f"<{node.tag}{attr_s}>")
    for c in node.children:
        _ref_serialize(c, out)
    out.append(f"</{node.tag}>")


def _ref_to_html(node: Node) -> str:
    out: list[str] = []
    _ref_serialize(node, out)
    return "".join(out)


_REF_HTML_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_REF_HEADER_FIX_RE = re.compile(r"(#{1,6})([^#\s])")
_REF_LIST_FIX_RE = re.compile(r"(\n\s*)-([^\s])")
_REF_EXCESSIVE_NEWLINES_RE = re.compile(r"\n{3,}")
_REF_ORDERED_ITEM_RE = re.compile(r"^\s*\d+\.")
_REF_LONELY_PUNCT_RE = re.compile(r"^\s*[\*\.\-]\s*$", re.MULTILINE)
_REF_LONELY_STAR_RE = re.compile(r"^\s*\*\s*$", re.MULTILINE)
_REF_CODE_SPACING_RE = re.compile(r"(\n*)(```[\w]*\n.*?\n```)(\n*)",
                                  re.DOTALL)
_REF_IMG_SPACING_RE = re.compile(r"(\n*)(!\[.*?\]\(.*?\))(\n*)")


def _ref_collapse_newlines(markdown: str) -> str:
    if "\n\n\n" in markdown:
        return _REF_EXCESSIVE_NEWLINES_RE.sub("\n\n", markdown)
    return markdown


def _ref_post_process(markdown: str) -> str:
    if "<!--" in markdown:
        markdown = _REF_HTML_COMMENT_RE.sub("", markdown)
    markdown = markdown.replace("&nbsp;", " ")
    markdown = markdown.replace("\xa0", " ")
    markdown = _REF_HEADER_FIX_RE.sub(r"\1 \2", markdown)
    markdown = _REF_LIST_FIX_RE.sub(r"\1- \2", markdown)
    lines = markdown.split("\n")
    processed: list[str] = []
    in_code_block = False
    in_list = False
    for line in lines:
        line = line.rstrip()
        if line.startswith("```"):
            in_code_block = not in_code_block
            processed.append(line)
            continue
        if in_code_block:
            processed.append(line)
            continue
        if not line.strip():
            if processed and processed[-1].strip():
                processed.append("")
            continue
        if line.startswith("#"):
            if processed and processed[-1].strip():
                processed.append("")
            processed.append(line)
            processed.append("")
            in_list = False
            continue
        if (line.strip().startswith(("-", "*", "+"))
                or _REF_ORDERED_ITEM_RE.match(line)):
            if not in_list and processed and processed[-1].strip():
                processed.append("")
            processed.append(line)
            in_list = True
            continue
        else:
            in_list = False
        if line.strip().startswith("!["):
            if processed and processed[-1].strip():
                processed.append("")
            processed.append(line)
            processed.append("")
            continue
        processed.append(line)
    markdown = "\n".join(processed)
    markdown = _ref_collapse_newlines(markdown)
    markdown = _REF_LONELY_PUNCT_RE.sub("", markdown)
    markdown = _ref_collapse_newlines(markdown)
    markdown = markdown.replace("**Copy\n[code]", "Copy\n\n```")
    markdown = markdown.replace("[/code]", "```")
    markdown = markdown.replace("[code]", "```")
    markdown = markdown.replace("[/code]", "```")
    markdown = _REF_LONELY_PUNCT_RE.sub("", markdown)
    markdown = _ref_collapse_newlines(markdown)
    if "```" in markdown:
        markdown = _REF_CODE_SPACING_RE.sub(r"\n\n\2\n\n", markdown)
    if "![" in markdown:
        markdown = _REF_IMG_SPACING_RE.sub(r"\n\n\2\n\n", markdown)
    markdown = _ref_collapse_newlines(markdown)
    markdown = _REF_LONELY_STAR_RE.sub("", markdown)
    markdown = _ref_collapse_newlines(markdown)
    return markdown.strip()


def _ref_extract_page(url: str, html: str, only_main: bool = True) -> dict:
    root = _ref_fast_parse(html)
    idx = _RefPageIndex(root)
    metadata = _ref_extract_metadata(idx)
    structured = _ref_extract_structured(idx)
    links = _ref_links(idx.anchors, url)
    content_root = root
    if only_main:
        main = _ref_find_main_content(root)
        if main is not None:
            content_root = _ref_copy(main)
    _ref_clean_tree(content_root)
    html_clean = _ref_to_html(content_root)
    md = _ref_post_process(_ref_to_markdown_tree(content_root))
    return {
        "markdown": md, "html_clean": html_clean, "metadata": metadata,
        "structured": structured, "links": links,
        "crawl_links": _ref_links(content_root.find_all("a", href=True), url),
    }


# ---------------------------------------------------------------------------
# tag soup
# ---------------------------------------------------------------------------

_HREFS = ["/a", "a/b", "../up", "#frag", "/a#frag", "?q=1", "/a?x=1#f",
          "https://h.example/x", "https://h.example/x#y",
          "https://other.example/y", "//h.example/p", "", " /sp ",
          "javascript:void(0)", "mailto:x@h.example", "http://[bad"]
_TEXTS = ["", " ", "  ", "\t", "\r\n", "\f", "\n\n", "a  b", "x\ty",
          "c\rd", "e\ff", "Hello world", " lead", "trail ", "&amp; &lt;b&gt;",
          "café  nbsp", "5 < 6", "*", "-"]
_ATTRS = [("id", "content"), ("id", "main-x"), ("id", "side"),
          ("class", "main-body"), ("class", "nav"), ("class", "Article"),
          ("role", "main"), ("style", "color:red"), ("onclick", "go()"),
          ("data-k", "v"), ("aria-label", "l"), ("title", "t"),
          ("lang", "en"), ("src", "/i.png?x=1")]
_TAGS = ["div", "div", "section", "article", "main", "nav", "header",
         "footer", "aside", "p", "span", "a", "ul", "li", "ol", "table",
         "tr", "td", "th", "h2", "pre", "code", "em", "strong", "blockquote",
         "noscript", "iframe", "dl", "dt", "dd", "body"]
_LEAVES = [
    "<!-- a comment -->", "<!-- <main>in a comment</main> -->",
    "<script>var s = '<main>x</main>';</script>",
    "<style>main { color: red }</style>",
    "<noscript><main>no</main><article>js</article><section>s</section>"
    "</noscript>",
    "<br>", "<hr>", "<img src='/p/pic.png?v=2'>", "<img alt='' src=''>",
    "<img src=a.jpg title=T alt=A>",
    "<nav><header><a href='/n'>n</a></header></nav>",
    "<header><nav><footer>f</footer></nav></header>",
    "<footer><noscript><section>s</section></noscript></footer>",
    "<nav><script><article>a</article></script></nav>",
    "<nav><!-- <section>c</section> --></nav>",
]


def _attr_s(pairs: list[tuple[str, str]]) -> str:
    return "".join(f' {k}="{v}"' for k, v in pairs)


_text = st.sampled_from(_TEXTS)
_anchor = st.builds(
    lambda href, text, extra: f'<a href="{href}"{_attr_s(extra)}>{text}</a>',
    st.sampled_from(_HREFS), _text,
    st.lists(st.sampled_from(_ATTRS), max_size=2))
_leaf = st.one_of(_text, _anchor, st.sampled_from(_LEAVES))


def _element(tag: str, attrs: list, kids: list[str], close: bool) -> str:
    body = "".join(kids)
    return f"<{tag}{_attr_s(attrs)}>{body}" + (f"</{tag}>" if close else "")


_soup = st.recursive(
    _leaf,
    lambda kids: st.builds(
        _element, st.sampled_from(_TAGS),
        st.lists(st.sampled_from(_ATTRS), max_size=3),
        st.lists(kids, max_size=4), st.booleans()),
    max_leaves=40)
_root_open = st.sampled_from([
    "", "<main style='margin:0' onclick='go()' data-x=1 aria-hidden=true>",
    "<article onclick=x class=post>", "<div id=content style=s>",
    "<div class='main-column' onload=y>", "<div role=main tabindex=0>",
    "<section style=x>"])


@st.composite
def _pages(draw) -> str:
    root = draw(_root_open)
    close = f"</{root[1:].split()[0].rstrip('>')}>" if root else ""
    parts = draw(st.lists(_soup, max_size=5))
    head = draw(st.sampled_from([
        "", "<head><title> T  t </title><meta name=description "
        "content=d></head>",
        "<head><link rel=canonical href='/c#x'></head>"]))
    return (f"<!DOCTYPE html><html lang=en>{head}<body>"
            f"{root}{''.join(parts)}{close}{draw(_soup)}</body></html>")


_URL = "https://h.example/dir/page.html"


@given(_pages(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_extract_page_matches_frozen_kernel(html, only_main):
    assert (extract_page(_URL, html, only_main=only_main)
            == _ref_extract_page(_URL, html, only_main=only_main))


@pytest.mark.parametrize("html", [
    # the content root's own attributes are filtered too
    "<body><main style='color:red' onclick='go()' id=m data-x=1>"
    "<p>t</p></main></body>",
    # chrome nested in chrome, content tags only inside dropped subtrees
    "<body><div id=content><nav><header><footer>f</footer></header></nav>"
    "<header><noscript><main>m</main></noscript></header>"
    "<footer><!-- <article>a</article> --></footer>"
    "<nav><header><section>s</section></header></nav>"
    "<header><script><section>x</section></script>h</header></div></body>",
    # duplicate, relative, fragment and absolute hrefs in and out of main
    "<body><a href='/x'>1</a><a href='#top'>2</a><main><a href='/x#y'>3</a>"
    "<a href='x'>4</a><a href='https://h.example/x'>5</a><a href=''>6</a>"
    "<a href='https://o.example/'>7</a></main><a href='/x'>8</a></body>",
    # whitespace-only runs, tabs, CR, FF and double spaces
    "<body><main> <p>a  b\tc\r\nd\fe</p>\n\t<p> </p>\f<span>x  </span>"
    "<em>  y</em>\r<p>one two</p></main></body>",
    # the largest-text fallback, ties broken by the first container
    "<body><div>ab</div><section>cd</section><div><div>abc</div></div>"
    "</body>",
])
@pytest.mark.parametrize("only_main", [True, False])
def test_extract_page_matches_frozen_kernel_on_edge_pages(html, only_main):
    assert (extract_page(_URL, html, only_main=only_main)
            == _ref_extract_page(_URL, html, only_main=only_main))


@pytest.mark.parametrize("corpus", [
    dict(n_hosts=8, with_private=False, size_factor=25),
    dict(n_hosts=16, with_private=True, size_factor=1),
], ids=["bulk_shaped", "polite_skew_shaped"])
def test_page_extractor_matches_frozen_kernel_on_corpora(corpus, monkeypatch):
    pages = feature_corpus(**corpus).select(["url", "warc_ts", "html"])
    got = PageExtractor()(pages)
    monkeypatch.setattr(raycrawl.extract, "extract_page", _ref_extract_page)
    want = PageExtractor()(pages)
    assert got.num_rows == pages.num_rows
    assert got.equals(want)


# ---------------------------------------------------------------------------
# tokenizer differential
# ---------------------------------------------------------------------------

_TOKENS = [
    "<p>", "</p>", "<li>", "</li>", "<ul>", "</ul>", "<ol>", "<td>", "<th>",
    "<tr>", "</tr>", "<table>", "</table>", "<div>", "</div>", "<b>", "</b>",
    "<i>", "</i>", "</span>", "<span class=x>", "<option>", "<h2>", "<main>",
    "<a href='/a?x=1&amp;y=2'>", "<a href=\"&lt;q&gt;\" title='&quot;'>",
    "<img src=x alt=&eacute;>", "<br/>", "<input disabled>", "<P CLASS=Up>",
    "</P >", "<div\ndata-a = 'v'\tid=\"q\" >", "<x-custom a=b/>",
    "<script>if (a < b && c > d) { x = '</p>'; }</script>",
    "<style>p > a { }</style>", "<SCRIPT type=text/javascript>1</ScRiPt >",
    "<script>never closed", "<style>",
    "<!-- c -->", "<!-- a -- b -->", "<!---->", "<!DOCTYPE html>", "<?pi x?>",
    "a < b", "<", "< p>", "<3", "a&amp;b", "&lt;tag&gt;", "&#169;", "&#x41;",
    "&nbsp;", "&bogus;", "&amp", "café", " ", "\n", "\t", "text",
    "</nope>", "<p>para<div>div</p>",
]


@given(st.lists(st.sampled_from(_TOKENS), max_size=40))
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_frozen_tokenizer(tokens):
    html = "".join(tokens)
    got, want = _fast_parse(html), _ref_fast_parse(html)
    assert got.to_html() == want.to_html()
    assert _shape(got) == _shape(want)


@given(st.text(alphabet="<>/=&;'\" abpliscrtdy-!#x1\n", max_size=120))
@settings(max_examples=500, deadline=None)
def test_tokenizer_matches_frozen_tokenizer_on_raw_text(html):
    got, want = _fast_parse(html), _ref_fast_parse(html)
    assert got.to_html() == want.to_html()
    assert _shape(got) == _shape(want)


def _shape(node: Node):
    """Tag, text, attrs and children."""
    return (node.tag, node.text, node.attrs,
            [_shape(c) for c in node.children])


@given(st.text(alphabet=" \t\r\n\f\v\xa0ab", max_size=30))
@settings(max_examples=300, deadline=None)
def test_guarded_whitespace_collapse_is_the_regex(text):
    assert markdown._collapse_ws(text) == markdown._WS_RE.sub(" ", text)


# ---------------------------------------------------------------------------
# deep nesting
# ---------------------------------------------------------------------------

def test_largest_text_fallback_takes_the_first_of_equals_on_deep_nesting():
    depth = 2000
    root = _fast_parse("<div>" * depth + "x" + "</div>" * depth
                       + "<section>y</section>")
    assert find_main_content(root) is root.children[0]


_DEEP = ("<html><body>" + "<div>" * 600 + "deep" + "</div>" * 600
         + "</body></html>")


def _with_deep_page(pages: pa.Table) -> tuple[list[str], list[str], pa.Table]:
    """``pages`` with the 600-deep page second: its urls, htmls and batch."""
    urls = pages.column("url").to_pylist()
    htmls = [h.decode() for h in pages.column("html").to_pylist()]
    urls.insert(1, "https://h0.example/deep.html")
    htmls.insert(1, _DEEP)
    batch = pa.Table.from_pydict(
        {"url": urls, "warc_ts": pa.nulls(len(urls), pa.timestamp("us")),
         "html": [h.encode() for h in htmls], "text": [""] * len(urls),
         "lang": [""] * len(urls)}, schema=PAGES)
    return urls, htmls, batch


def test_deeply_nested_page_is_one_error_row_in_its_batch():
    """A page nested 600 deep overflows the recursive markdown renderer;
    it becomes one error row and its batch neighbours are untouched."""
    pages = feature_corpus(n_hosts=1, pages_per_host=3, with_private=False)
    urls, htmls, batch = _with_deep_page(pages)
    rows = PageExtractor()(batch).to_pylist()
    errors = [i for i, r in enumerate(rows) if r["status_code"] != 200]
    assert errors == [1]
    assert rows[1]["status_code"] == 500
    assert "recursion" in rows[1]["error"]
    for i in (0, 2, 3):
        want = page_row(extract_page(urls[i], htmls[i]))
        assert {k: rows[i][k] for k in want} == want


# ---------------------------------------------------------------------------
# garbage collection
# ---------------------------------------------------------------------------

def test_kernels_leave_no_cyclic_garbage_and_restore_the_collector():
    """The batch kernels pause the cyclic collector around their page loop,
    which is sound only because a page leaves no reference cycle behind:
    with the collector off, extracting every page (the raising 600-deep
    one included) and running both kernels over a batch leaves nothing for
    ``gc.collect()`` to free. Each kernel restores the collector's prior
    state, whether or not a page raised."""
    urls, htmls, batch = _with_deep_page(feature_corpus(n_hosts=4))
    wave_kernel = WaveExtractor(frozenset({"h0.example"}), None, None, True)
    gc.collect()
    gc.disable()
    try:
        for url, html in zip(urls, htmls):
            try:
                extract_page(url, html)
            except RecursionError:
                assert html is _DEEP
        PageExtractor()(batch)
        wave_kernel(batch.select(["url", "html"]))
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()
    for kernel, pages in [(PageExtractor(), batch),
                          (wave_kernel, batch.select(["url", "html"]))]:
        out = kernel(pages)
        assert out.column("status_code").to_pylist().count(500) == 1
        assert gc.isenabled()
        out = kernel(pages.slice(2))
        assert set(out.column("status_code").to_pylist()) == {200}
        assert gc.isenabled()


# ---------------------------------------------------------------------------
# post-process on its own
# ---------------------------------------------------------------------------

_PP_FRAGMENTS = [
    # header runs of 1-8 '#'
    "#", "##", "###", "####", "#####", "######", "#######", "########",
    "a", "Z", "é", "_", "1", " ", "\t", "\n", "\n\n", "\n\n\n",
    # images, brackets inside them, newline runs around them
    "![a](b)", "![](u)", "![a]b](c)", "![a](b(c))", "![[x]](y)",
    "![a](b \"t\")", "![", "](", "]", ")", "(", "[", "!",
    # fences with and without a language
    "```", "```py", "```py\n", "```\n", "```c++\n", "\n```", "code",
    # lonely-line material
    "*", ".", "-", "+", "1.", " * ", "\xa0", "　", "\x1c", "\x1f",
    "\x85", "\v", "\f", "\r",
    # the literal rewrites
    "[code]", "[/code]", "**Copy\n[code]", "**Copy", "**",
    "&nbsp;", "<!--", "-->", "<!-- c -->",
]
_LONELY = st.builds(
    lambda pre, mark, post: f"\n{pre}{mark}{post}\n",
    st.sampled_from(["", " ", "\t", "\xa0", "　", "\x1c", "\xa0 "]),
    st.sampled_from(["*", ".", "-"]),
    st.sampled_from(["", " ", "\t", "\xa0", "　", "\x1c", " \x1c"]))
_IMG = st.builds(
    lambda a, alt, src, b: f"{a}![{alt}]({src}){b}",
    st.sampled_from(["", "\n", "\n\n", "\n\n\n\n", "x", "* "]),
    st.sampled_from(["", "a", "a]b", "[x]", "a\nb"]),
    st.sampled_from(["", "u", "u(v)", "u \"t\"", "u]"]),
    st.sampled_from(["", "\n", "\n\n\n", "y", " *"]))
_FENCE = st.builds(
    lambda a, lang, body, b: f"{a}```{lang}\n{body}\n```{b}",
    st.sampled_from(["", "\n", "\n\n\n", "text", "* "]),
    st.sampled_from(["", "py", "c_1", "é", "c++"]),
    st.sampled_from(["", "x = 1", "a\n\nb", "```", "*", "\n"]),
    st.sampled_from(["", "\n", "\n\n\n\n", "z", "```"]))
_HEADERS = st.builds(lambda n, c: "#" * n + c, st.integers(1, 8),
                     st.sampled_from(["a", " ", "\n", "#", "é", "\t", ""]))


@given(st.one_of(
    st.lists(st.one_of(st.sampled_from(_PP_FRAGMENTS), _LONELY, _IMG,
                       _FENCE, _HEADERS), max_size=40).map("".join),
    st.text(alphabet="\n*-.#![]()`py \t\xa0　\x1c[/code]Copy",
            max_size=200)))
@settings(max_examples=1500, deadline=None)
def test_post_process_matches_frozen_chain(text):
    assert post_process_markdown(text) == _ref_post_process(text)


# ---------------------------------------------------------------------------
# serializer and metadata probes
# ---------------------------------------------------------------------------

_ESC = ["", "a", "&", "<", ">", '"', "'", "&amp;", "a<b>c", "x & y",
        "\"q\"", "it's", "&<>\"'", "plain text"]


@given(st.lists(st.tuples(st.sampled_from(["text", "comment", "el"]),
                          st.sampled_from(_ESC),
                          st.lists(st.tuples(
                              st.sampled_from(["href", "title", "alt",
                                               "data-x"]),
                              st.sampled_from(_ESC)), max_size=3)),
                max_size=12))
@settings(max_examples=400, deadline=None)
def test_serializer_matches_frozen_escaping(parts):
    """Text and attribute values holding ``&<>"'`` serialize as the
    unguarded ``escape`` calls did."""
    root = Node("#document")
    top = root
    for kind, text, attrs in parts:
        if kind == "text":
            top.append(Node(TEXT, text=text))
        elif kind == "comment":
            top.append(Node(COMMENT, text=text))
        else:
            el = Node("img" if not text else "span", attrs)
            top.append(el)
            if el.tag == "span":
                el.append(Node(TEXT, text=text))
                top = el
    assert root.to_html() == _ref_to_html(root)
    assert root.children == [] or (root.children[0].to_html()
                                   == _ref_to_html(root.children[0]))


_META_ATTRS = [
    ("name", "description"), ("name", "viewport"), ("name", "author"),
    ("name", "summary"), ("name", "language"), ("name", "site-id"),
    ("name", "app-version"), ("name", "docs-boost"), ("name", ""),
    ("name", "twitter:card"), ("name", "twitter:"), ("name", "og:title"),
    ("name", "article:published_time"), ("name", "article:section"),
    ("name", "keywords"), ("property", "og:title"), ("property", "og:"),
    ("property", "og:og:x"), ("property", "og:locale"),
    ("property", "og:site_name"), ("property", "og:weird"),
    ("property", "article:published_time"), ("property", "article:section"),
    ("property", "article:tag"), ("property", "fb:app_id"),
    ("property", "twitter:site"), ("property", ""), ("property", "custom"),
    ("http-equiv", "content-type"), ("http-equiv", "content-language"),
    ("http-equiv", "Content-Type"), ("charset", "utf-8"), ("charset", ""),
    ("content", ""), ("content", " "), ("content", "en_US"),
    ("content", "  v  "), ("content", "x"), ("content", "_GB"),
    ("datetime", "2020"), ("lang", "fr"),
]


@given(st.lists(st.lists(st.sampled_from(_META_ATTRS), max_size=4),
                max_size=10),
       st.sampled_from(["", " lang=en-GB", " lang=''"]),
       st.sampled_from(["", "<time datetime=2021>t</time>", "<time>t</time>",
                        "<link rel=icon href=' /f '>"]))
@settings(max_examples=500, deadline=None)
def test_metadata_probes_match_frozen_scans(metas, html_attrs, extra):
    """Repeated, empty and attribute-less ``<meta>`` tags (and repeated
    attributes within one tag): first-match and last-write semantics
    stay those of one ``meta()`` scan per probe."""
    tags = "".join("<meta" + _attr_s(attrs) + ">" for attrs in metas)
    html = f"<html{html_attrs}><head>{tags}</head><body>{extra}</body></html>"
    root = _fast_parse(html)
    idx, ref = PageIndex(root), _RefPageIndex(root)
    got_md, want_md = extract_metadata(idx), _ref_extract_metadata(ref)
    got_st, want_st = extract_structured(idx), _ref_extract_structured(ref)
    assert got_md == want_md and list(got_md) == list(want_md)
    assert got_st == want_st
    for k in got_st:
        if isinstance(got_st[k], dict):
            assert list(got_st[k]) == list(want_st[k])


@pytest.mark.parametrize("html", [
    "<head><meta><meta name=description><meta name=description "
    "content=second><meta content=orphan></head>",
    "<head><meta name=author content=a name=viewport content=b>"
    "<meta name=author content=c></head>",
    "<head><meta property=og:title content=' a '><meta property=og:title "
    "content=b><meta property=og:title content=''></head>",
    "<head><meta charset><meta charset=utf-8></head>",
])
def test_metadata_probes_match_frozen_scans_on_edge_pages(html):
    root = _fast_parse(html)
    assert extract_metadata(PageIndex(root)) == _ref_extract_metadata(
        _RefPageIndex(root))
    assert extract_structured(PageIndex(root)) == _ref_extract_structured(
        _RefPageIndex(root))


# ---------------------------------------------------------------------------
# the crawl's batch kernel
# ---------------------------------------------------------------------------

def _ref_wave_kernel(link_filter, only_main: bool, batch: pa.Table) -> pa.Table:
    """The crawl kernel before its columns were built directly: a row dict
    per page through ``page_row``, then a transpose."""
    rows = []
    for url, html in zip(batch.column("url").to_pylist(),
                         batch.column("html").to_pylist()):
        try:
            res = _ref_extract_page(url, decode_html(html), only_main)
            links = [u for u in res["crawl_links"] if link_filter(u)]
            canons = [canonicalize(u) for u in links]
            row = {**page_row(res), "links": links,
                   "link_keys": [url_key(c) for c in canons],
                   "link_hosts": [host_of(c) for c in canons]}
        except Exception as exc:
            row = error_row(exc, link_keys=[], link_hosts=[])
        rows.append(row)
    return rows_table(rows, WAVE_COLUMNS,
                      url=batch.column("url").cast(pa.string()))


@pytest.mark.parametrize("corpus", [
    dict(n_hosts=8, with_private=False, size_factor=25),
    dict(n_hosts=16, with_private=True, size_factor=1),
], ids=["bulk_shaped", "polite_skew_shaped"])
def test_wave_extractor_matches_frozen_kernel_on_corpora(corpus):
    pages = feature_corpus(**corpus).select(["url", "html"])
    _, _, deep = _with_deep_page(feature_corpus(n_hosts=1, pages_per_host=3))
    hosts = frozenset({"h0.example", "h1.example", "h3.example"})
    kernel = WaveExtractor(hosts, [r"/skip/", r"\.(jpg|png)$"], None, True)
    for batch in (pages.slice(0, 64), pages.slice(64, 200),
                  deep.select(["url", "html"]), pages.slice(0, 0)):
        got = kernel(batch)
        want = _ref_wave_kernel(kernel.link_filter, True, batch)
        assert got.equals(want)
