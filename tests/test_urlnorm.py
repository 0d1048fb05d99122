from urllib.parse import urljoin, urlparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raycrawl import links, urlnorm
from raycrawl.links import LinkFilter
from raycrawl.urlnorm import canonicalize, host_shard, normalize_url, url_key


def test_normalize_resolves_relative():
    assert normalize_url("/a/b.html", "https://h.example/x/y.html") == "https://h.example/a/b.html"
    assert normalize_url("c.html", "https://h.example/x/y.html") == "https://h.example/x/c.html"


def test_normalize_strips_fragment_query_params():
    assert normalize_url("https://h.example/p.html?utm=1#frag", "https://h.example/") == "https://h.example/p.html"
    assert normalize_url("p.html;param?q=1#f", "https://h.example/d/") == "https://h.example/d/p.html"


def test_canonicalize_case_and_ports():
    assert canonicalize("HTTPS://H0.Example:443/A/B.html") == "https://h0.example/A/B.html"
    assert canonicalize("http://h.example:80/") == "http://h.example/"
    assert canonicalize("http://h.example:8080/x") == "http://h.example:8080/x"
    assert canonicalize("https://h.example") == "https://h.example/"


def test_canonicalize_percent_encoding():
    assert canonicalize("https://h.example/a%20b/%7Euser") == "https://h.example/a%20b/~user"
    assert canonicalize("https://h.example/caf%C3%A9") == canonicalize("https://h.example/café")


def test_url_key_stable_20_bytes():
    k = url_key("https://h0.example/d0/p0.html")
    assert len(k) == 20
    assert k == url_key("HTTPS://h0.example:443/d0/p0.html?x=1#f".split("?")[0])


def test_host_shard_deterministic_and_spread():
    shards = {host_shard(f"h{i}.example", 8) for i in range(100)}
    assert shards == set(range(8))
    assert host_shard("h0.example", 8) == host_shard("h0.example", 8)


def test_percent_encoding_rfc3986():
    """ADVICE regression: reserved escapes stay encoded (distinct URLs),
    unreserved escapes decode, hex is uppercased, literal % passes through."""
    from raycrawl.urlnorm import canonicalize

    assert canonicalize("https://h/a%2Fb") != canonicalize("https://h/a/b")
    assert canonicalize("https://h/a%2fb") == canonicalize("https://h/a%2Fb")
    assert canonicalize("https://h/%7Euser") == canonicalize("https://h/~user")
    assert canonicalize("https://h/%41bc") == canonicalize("https://h/Abc")
    assert canonicalize("https://h/100%stale") == "https://h/100%stale"
    assert canonicalize("https://h/a b") == "https://h/a%20b"


# --- normalize_url's root-relative fast path ---------------------------------

def _normalize_by_urljoin(url, base_url):
    """normalize_url without its fast path: urljoin, then strip."""
    try:
        parsed = urlparse(urljoin(base_url, url))
        return parsed._replace(fragment="", params="", query="").geturl()
    except ValueError:
        return None


_HREF_PARTS = ["a", "Z9", "-", "_", "~", ".", "..", "/", "//", "/.", "/..",
               "./", "../", ";", ";p=1", "?", "?q=1", "#", "#f", "%", "%2F",
               "%2e", "\\", ":", "@", "!$&'()*+,=", " ", "\t", "\n", "é",
               "　", "[", "]"]
_BASES = [
    "https://h.example/d0/p0.html", "http://h.example", "https://h.example/",
    "https://h.example:8080/a/b", "https://h.example:/x", "http://h.example:80",
    "https://user@h.example/x", "https://u:p@h.example/x",
    "https://[::1]/x", "http://[2001:db8::1]:8080/x",
    "HTTPS://h.example/x", "Http://h.example/x", "https://H.Example/x",
    "https://h.example/a?q=1", "https://h.example?q=1", "https://h.example/a#f",
    "https://h.example#f", "https://h.example/a;p=1", "https://h.example;p/x",
    "ftp://h.example/x", "file:///tmp/x", "mailto:me@h.example", "data:,x",
    " https://h.example/x", "https://h.ex\tample/x", "https://h.example\n",
    "https://h_x.example/x", "https://h.example\\x", "https://", "http:/h.example",
    "https://héllo.example/x", "https://h.example/%2e%2e/x",
]


@given(st.lists(st.sampled_from(_HREF_PARTS), max_size=8),
       st.booleans(),
       st.one_of(st.sampled_from(_BASES),
                 st.builds(lambda scheme, rest: scheme + rest,
                           st.sampled_from(["https://", "http://", "HTTP://"]),
                           st.text(alphabet="aZ9.-:@[]/?#;\t ", max_size=8))))
@settings(max_examples=3000, deadline=None)
def test_normalize_fast_path_equals_urljoin(parts, rooted, base):
    href = ("/" if rooted else "") + "".join(parts)
    assert urlnorm.normalize_url(href, base) == _normalize_by_urljoin(href, base)


def test_normalize_fast_path_skips_urljoin(monkeypatch):
    """Plain root-relative hrefs against an http(s) origin never reach
    urljoin; everything else still does."""
    def boom(*_):
        raise AssertionError("urljoin called")

    monkeypatch.setattr(urlnorm, "urljoin", boom)
    for href, base, want in [
            ("/d1/p3.html", "https://h3.example/d0/p0.html",
             "https://h3.example/d1/p3.html"),
            ("/", "http://h.example:8080", "http://h.example:8080/"),
            ("/a//b:c@d/~x!$&'()*+,=", "https://h.example?q#f",
             "https://h.example/a//b:c@d/~x!$&'()*+,="),
            ("/.well-known/x...", "https://H.Example/y",
             "https://H.Example/.well-known/x...")]:
        assert urlnorm.normalize_url(href, base) == want
    for href, base in [("/a/../b", "https://h.example/"),
                       ("/a/.", "https://h.example/"),
                       ("//other.example/x", "https://h.example/"),
                       ("/a;p", "https://h.example/"),
                       ("/a?q", "https://h.example/"),
                       ("/a#f", "https://h.example/"),
                       ("/a%20b", "https://h.example/"),
                       ("/a\\b", "https://h.example/"),
                       ("/a b", "https://h.example/"),
                       ("/é", "https://h.example/"),
                       ("a/b", "https://h.example/"),
                       ("/a", "HTTPS://h.example/"),
                       ("/a", "https://u@h.example/"),
                       ("/a", "https://[::1]/"),
                       ("/a", "ftp://h.example/")]:
        with pytest.raises(AssertionError, match="urljoin called"):
            urlnorm.normalize_url(href, base)


# --- normalize_url's absolute-href fast path ---------------------------------

_SCHEMES = ["https://", "http://", "HTTPS://", "Http://", "ftp://", "https:",
            "https:///", ""]
_HOSTS = ["h.example", "H.Example", "h3.example", "a-b.c", "h", "",
          "[::1]", "u@h.example", "u:p@h.example", "héllo.example", "h_x.example",
          "h.ex\tample", "h.example\n"]
_PORTS = ["", ":8080", ":80", ":443", ":", ":0", ":x", "::1"]


@given(st.sampled_from(_SCHEMES), st.sampled_from(_HOSTS),
       st.sampled_from(_PORTS),
       st.lists(st.sampled_from(_HREF_PARTS), max_size=8),
       st.one_of(st.sampled_from(_BASES),
                 st.builds(lambda scheme, rest: scheme + rest,
                           st.sampled_from(["https://", "http://", "HTTP://"]),
                           st.text(alphabet="aZ9.-:@[]/?#;\t ", max_size=8))))
@settings(max_examples=3000, deadline=None)
def test_normalize_absolute_fast_path_equals_urljoin(scheme, host, port,
                                                     parts, base):
    """Absolute hrefs with upper-case schemes and hosts, ports, empty paths,
    dot segments and '?' / '#' / ';' give what urljoin gives."""
    href = scheme + host + port + "".join(parts)
    assert urlnorm.normalize_url(href, base) == _normalize_by_urljoin(href, base)


def test_normalize_absolute_fast_path_skips_urljoin(monkeypatch):
    """A plain absolute href, same origin or not, is returned as it is
    without urljoin; one that needs resolving or stripping still takes it."""
    def boom(*_):
        raise AssertionError("urljoin called")

    monkeypatch.setattr(urlnorm, "urljoin", boom)
    for href, base in [
            ("https://h.example/d1/p3.html", "https://h.example/d0/p0.html"),
            ("https://h.example", "https://h.example/d0/p0.html"),
            ("https://h.example/", "https://h.example"),
            ("http://H.Example:8080/a//b:c@d/~x", "https://h.example/"),
            ("https://other.example/x", "https://h.example/")]:
        assert urlnorm.normalize_url(href, base) == href
    for href, base in [("https://h.example/a/../b", "https://h.example/"),
                       ("https://h.example/a?q", "https://h.example/"),
                       ("https://h.example/a#f", "https://h.example/"),
                       ("https://h.example/a;p", "https://h.example/"),
                       ("https://h.example//a", "https://h.example/"),
                       ("HTTPS://h.example/a", "https://h.example/"),
                       ("https://u@h.example/a", "https://h.example/"),
                       ("https://h.example/a", "https://[::1]/"),
                       ("https://h.example/a", "http://[x")]:
        with pytest.raises(AssertionError, match="urljoin called"):
            urlnorm.normalize_url(href, base)


# --- LinkFilter's netloc ------------------------------------------------------

@given(st.sampled_from(["http://", "https://", "HTTP://", "https:/", "ftp://",
                        " https://", ""]),
       st.one_of(st.text(max_size=24),
                 st.text(alphabet="aZ9.-_:@/?#;[]%\t\r\n é℀ⅽ＃",
                         max_size=24)))
@settings(max_examples=3000, deadline=None)
def test_link_filter_netloc_equals_urlparse(prefix, rest):
    url = prefix + rest
    try:
        want = urlparse(url).netloc
    except ValueError:
        with pytest.raises(ValueError):
            links._netloc(url)
        with pytest.raises(ValueError):
            LinkFilter("h.example")(url)
        return
    assert links._netloc(url) == want
    assert LinkFilter(want)(url)
    assert not LinkFilter(want + "x")(url)
