#include "sip/lazy_message.h"

#include <array>

#include "common/strings.h"
#include "sip/message.h"

namespace vids::sip {

using common::IEquals;
using common::IStartsWith;
using common::ParseInt;
using common::Trim;

namespace {

constexpr std::string_view kSipVersion = "SIP/2.0";

// Indexed by HeaderId — must stay in enum order. Same entries (and the same
// canonical capitalization) as the table Message's serializer has always
// used; Message::CanonicalName now resolves through this table too.
constexpr std::string_view kCanonicalNames[] = {
    "Via", "From", "To", "Call-ID", "CSeq", "Contact", "Content-Type",
    "Content-Length", "Max-Forwards", "Expires", "User-Agent",
    "WWW-Authenticate", "Authorization", "Proxy-Authenticate",
    "Proxy-Authorization", "Record-Route", "Route", "Allow", "Supported",
    "Subject"};
static_assert(std::size(kCanonicalNames) ==
              static_cast<size_t>(HeaderId::kOther));

// RFC 3261 §25.1: token = 1*(alphanum / "-" / "." / "!" / "%" / "*" / "_" /
// "+" / "`" / "'" / "~"). Methods and header names are tokens, so a control
// byte, a space, '@' or any byte above 0x7F in one is not SIP.
bool IsToken(std::string_view text) {
  static constexpr auto kTokenByte = [] {
    std::array<bool, 256> table{};
    for (int c = '0'; c <= '9'; ++c) table[c] = true;
    for (int c = 'A'; c <= 'Z'; ++c) table[c] = true;
    for (int c = 'a'; c <= 'z'; ++c) table[c] = true;
    for (const char c : std::string_view("-.!%*_+`'~")) {
      table[static_cast<unsigned char>(c)] = true;
    }
    return table;
  }();
  if (text.empty()) return false;
  for (const char c : text) {
    if (!kTokenByte[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

// Splits ";name=value;flag" tails into `params`. Mirrors the std::map
// ParseParams in message.cpp: pieces trimmed, empty pieces skipped, and the
// halves around '=' trimmed (Split/SplitOnce both trim).
void ParseParamsInto(std::string_view tail, ParamList& params) {
  size_t start = 0;
  while (true) {
    const size_t semi = tail.find(';', start);
    const std::string_view piece =
        Trim(semi == std::string_view::npos ? tail.substr(start)
                                            : tail.substr(start, semi - start));
    if (!piece.empty()) {
      const size_t eq = piece.find('=');
      if (eq == std::string_view::npos) {
        params.push_back({piece, {}});
      } else {
        params.push_back({Trim(piece.substr(0, eq)), Trim(piece.substr(eq + 1))});
      }
    }
    if (semi == std::string_view::npos) return;
    start = semi + 1;
  }
}

}  // namespace

std::string_view ExpandCompactHeader(std::string_view name) {
  if (name.size() != 1) return name;
  switch (name[0] | 0x20) {
    case 'i': return "Call-ID";
    case 'f': return "From";
    case 't': return "To";
    case 'v': return "Via";
    case 'm': return "Contact";
    case 'c': return "Content-Type";
    case 'l': return "Content-Length";
    default: return name;
  }
}

std::string_view CanonicalHeaderName(HeaderId id) {
  if (id == HeaderId::kOther) return {};
  return kCanonicalNames[static_cast<size_t>(id)];
}

HeaderId CanonicalHeaderId(std::string_view name) {
  name = ExpandCompactHeader(name);
  if (name.empty()) return HeaderId::kOther;
  // First-letter + length dispatch: at most two case-insensitive compares
  // per header instead of a scan over the whole canonical table — this runs
  // once per header line on every indexed packet.
  const auto is = [name](HeaderId id) {
    return IEquals(name, kCanonicalNames[static_cast<size_t>(id)]);
  };
  switch (name[0] | 0x20) {
    case 'v':
      return is(HeaderId::kVia) ? HeaderId::kVia : HeaderId::kOther;
    case 'f':
      return is(HeaderId::kFrom) ? HeaderId::kFrom : HeaderId::kOther;
    case 't':
      return is(HeaderId::kTo) ? HeaderId::kTo : HeaderId::kOther;
    case 'c':
      switch (name.size()) {
        case 4:
          return is(HeaderId::kCseq) ? HeaderId::kCseq : HeaderId::kOther;
        case 7:
          if (is(HeaderId::kCallId)) return HeaderId::kCallId;
          return is(HeaderId::kContact) ? HeaderId::kContact
                                        : HeaderId::kOther;
        case 12:
          return is(HeaderId::kContentType) ? HeaderId::kContentType
                                            : HeaderId::kOther;
        case 14:
          return is(HeaderId::kContentLength) ? HeaderId::kContentLength
                                              : HeaderId::kOther;
        default:
          return HeaderId::kOther;
      }
    case 'm':
      return is(HeaderId::kMaxForwards) ? HeaderId::kMaxForwards
                                        : HeaderId::kOther;
    case 'e':
      return is(HeaderId::kExpires) ? HeaderId::kExpires : HeaderId::kOther;
    case 'u':
      return is(HeaderId::kUserAgent) ? HeaderId::kUserAgent
                                      : HeaderId::kOther;
    case 'w':
      return is(HeaderId::kWwwAuthenticate) ? HeaderId::kWwwAuthenticate
                                            : HeaderId::kOther;
    case 'a':
      if (is(HeaderId::kAuthorization)) return HeaderId::kAuthorization;
      return is(HeaderId::kAllow) ? HeaderId::kAllow : HeaderId::kOther;
    case 'p':
      if (is(HeaderId::kProxyAuthenticate)) {
        return HeaderId::kProxyAuthenticate;
      }
      return is(HeaderId::kProxyAuthorization) ? HeaderId::kProxyAuthorization
                                               : HeaderId::kOther;
    case 'r':
      if (is(HeaderId::kRecordRoute)) return HeaderId::kRecordRoute;
      return is(HeaderId::kRoute) ? HeaderId::kRoute : HeaderId::kOther;
    case 's':
      if (is(HeaderId::kSupported)) return HeaderId::kSupported;
      return is(HeaderId::kSubject) ? HeaderId::kSubject : HeaderId::kOther;
    default:
      return HeaderId::kOther;
  }
}

// --- ParamList ---

void ParamList::push_back(ParamView param) {
  if (size_ < kInline) {
    inline_[size_] = param;
  } else {
    // clear() keeps overflow capacity (and stale size) so steady-state reuse
    // stays allocation-free once grown; overwrite before growing.
    const size_t idx = size_ - kInline;
    if (idx < overflow_.size()) {
      overflow_[idx] = param;
    } else {
      overflow_.push_back(param);
    }
  }
  ++size_;
}

const ParamView* ParamList::Find(std::string_view name) const {
  for (size_t i = size_; i > 0; --i) {
    const ParamView& param = (*this)[i - 1];
    if (IEquals(param.name, name)) return &param;
  }
  return nullptr;
}

// --- Typed view decoders (each mirrors its message.cpp counterpart) ---

bool ParseUriView(std::string_view text, UriView& out) {
  text = Trim(text);
  if (!IStartsWith(text, "sip:")) return false;
  text.remove_prefix(4);
  out = UriView{};
  if (const auto semi = text.find(';'); semi != std::string_view::npos) {
    out.params = text.substr(semi + 1);
    text = text.substr(0, semi);
  }
  if (const auto at = text.find('@'); at != std::string_view::npos) {
    out.user = text.substr(0, at);
    text = text.substr(at + 1);
  }
  if (text.empty()) return false;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    const auto port = ParseInt<uint16_t>(text.substr(colon + 1));
    if (!port) return false;
    out.port = *port;
    text = text.substr(0, colon);
  }
  out.host = text;
  return true;
}

bool ParseNameAddrView(std::string_view text, NameAddrView& out) {
  text = Trim(text);
  out.display_name = {};
  out.params.clear();
  std::string_view uri_part;
  std::string_view param_tail;

  const auto open = text.find('<');
  if (open != std::string_view::npos) {
    const auto close = text.find('>', open);
    if (close == std::string_view::npos) return false;
    std::string_view display = Trim(text.substr(0, open));
    if (display.size() >= 2 && display.front() == '"' && display.back() == '"') {
      display = display.substr(1, display.size() - 2);
    }
    out.display_name = display;
    uri_part = text.substr(open + 1, close - open - 1);
    param_tail = text.substr(close + 1);
    if (!param_tail.empty() && param_tail.front() == ';') {
      param_tail.remove_prefix(1);
    }
  } else {
    // addr-spec form: params after ';' belong to the header, not the URI.
    const auto semi = text.find(';');
    uri_part = text.substr(0, semi);
    if (semi != std::string_view::npos) param_tail = text.substr(semi + 1);
  }

  if (!ParseUriView(uri_part, out.uri)) return false;
  if (!param_tail.empty()) ParseParamsInto(param_tail, out.params);
  return true;
}

bool ParseViaView(std::string_view text, ViaView& out) {
  text = Trim(text);
  // "SIP/2.0/UDP host:port;params" — the protocol token must split on '/'
  // into exactly {SIP, 2.0, transport} (pieces trimmed, compares exact).
  const auto space = text.find(' ');
  if (space == std::string_view::npos) return false;
  const std::string_view proto = text.substr(0, space);
  const auto slash1 = proto.find('/');
  if (slash1 == std::string_view::npos) return false;
  const auto slash2 = proto.find('/', slash1 + 1);
  if (slash2 == std::string_view::npos) return false;
  if (proto.find('/', slash2 + 1) != std::string_view::npos) return false;
  if (Trim(proto.substr(0, slash1)) != "SIP") return false;
  if (Trim(proto.substr(slash1 + 1, slash2 - slash1 - 1)) != "2.0") {
    return false;
  }
  out.transport = Trim(proto.substr(slash2 + 1));
  out.branch = {};
  out.params.clear();

  const std::string_view rest = Trim(text.substr(space + 1));
  std::string_view host_port = rest;
  if (const auto semi = rest.find(';'); semi != std::string_view::npos) {
    host_port = Trim(rest.substr(0, semi));
    ParseParamsInto(rest.substr(semi + 1), out.params);
  }
  const auto ep = net::Endpoint::Parse(host_port);
  if (ep) {
    out.sent_by = *ep;
  } else {
    const auto ip = net::IpAddress::Parse(host_port);
    if (!ip) return false;
    out.sent_by = net::Endpoint{*ip, 5060};
  }
  // Unlike Via::Parse, the branch stays in the param list; the field is a
  // convenience alias for the last (winning) occurrence.
  if (const ParamView* branch = out.params.Find("branch")) {
    out.branch = branch->value;
  }
  return true;
}

bool ParseCSeqView(std::string_view text, CSeqView& out) {
  text = Trim(text);
  const auto space = text.find(' ');
  if (space == std::string_view::npos) return false;
  const auto number = ParseInt<uint32_t>(text.substr(0, space));
  if (!number) return false;
  const Method method = ParseMethod(Trim(text.substr(space + 1)));
  if (method == Method::kUnknown) return false;
  out.number = *number;
  out.method = method;
  return true;
}

// --- LazyMessage ---

void LazyMessage::AppendHeader(HeaderId id, std::string_view name,
                               std::string_view value) {
  if (header_count_ < kInlineHeaders) {
    inline_headers_[header_count_] = {id, name, value};
  } else {
    const size_t idx = header_count_ - kInlineHeaders;
    if (idx < overflow_headers_.size()) {
      overflow_headers_[idx] = {id, name, value};
    } else {
      overflow_headers_.push_back({id, name, value});
    }
  }
  ++header_count_;
}

bool LazyMessage::Index(std::string_view payload) {
  status_ = 0;
  method_token_ = {};
  reason_ = {};
  request_uri_ = UriView{};
  header_count_ = 0;
  body_ = {};
  has_cseq_ = false;
  cseq_ = CSeqView{};
  top_via_state_ = Memo::kUnparsed;
  from_state_ = Memo::kUnparsed;
  to_state_ = Memo::kUnparsed;

  // The head (start line + headers) ends at the *first* blank line,
  // whichever framing ("\r\n\r\n" or "\n\n") produced it: an LF-framed
  // message whose binary body happens to contain \r\n\r\n must not have its
  // head extended into the body (and be rejected as a malformed header).
  // Detection is inline while walking header lines — no separate terminator
  // scan of the payload. A lone "\r\n" line inside an LF-framed head is NOT
  // a terminator (only the exact four-byte "\r\n\r\n" is), so the raw line
  // is tested against the byte before its own "\r\n" prior to the '\r'
  // strip.
  size_t body_start = payload.size();
  bool first_line = true;
  size_t pos = 0;
  while (pos < payload.size()) {
    const size_t eol = payload.find('\n', pos);
    std::string_view line = payload.substr(
        pos,
        eol == std::string_view::npos ? payload.size() - pos : eol - pos);
    if (eol != std::string_view::npos && pos >= 1) {
      if (line.empty()) {  // "\n\n": bare-LF blank line
        body_start = pos + 1;
        break;
      }
      if (line.size() == 1 && line[0] == '\r' && pos >= 2 &&
          payload[pos - 2] == '\r') {  // "\r\n\r\n": CRLF blank line
        body_start = pos + 2;
        break;
      }
    }
    pos = eol == std::string_view::npos ? payload.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (first_line) {
      first_line = false;
      line = Trim(line);
      if (line.empty()) return false;
      if (IStartsWith(line, "SIP/2.0 ")) {
        // Status line: SIP/2.0 200 OK
        const auto rest = Trim(line.substr(kSipVersion.size()));
        const auto space = rest.find(' ');
        const auto code_text =
            space == std::string_view::npos ? rest : rest.substr(0, space);
        const auto code = ParseInt<int>(code_text);
        if (!code || *code < 100 || *code > 699) return false;
        status_ = *code;
        reason_ = space == std::string_view::npos
                      ? std::string_view{}
                      : Trim(rest.substr(space + 1));
      } else {
        // Request line: INVITE sip:bob@b.example SIP/2.0 — exactly three
        // space-separated pieces (a doubled space is an empty piece: reject).
        const auto space1 = line.find(' ');
        if (space1 == std::string_view::npos) return false;
        const auto space2 = line.find(' ', space1 + 1);
        if (space2 == std::string_view::npos) return false;
        if (line.find(' ', space2 + 1) != std::string_view::npos) return false;
        if (Trim(line.substr(space2 + 1)) != kSipVersion) return false;
        method_token_ = Trim(line.substr(0, space1));
        if (!IsToken(method_token_)) return false;
        const auto uri_text = Trim(line.substr(space1 + 1, space2 - space1 - 1));
        if (!ParseUriView(uri_text, request_uri_)) return false;
      }
      continue;
    }
    if (Trim(line).empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    const std::string_view name = Trim(line.substr(0, colon));
    if (!IsToken(name)) return false;
    const std::string_view value = Trim(line.substr(colon + 1));
    const HeaderId id = CanonicalHeaderId(name);
    if (id == HeaderId::kVia) {
      // Comma-separated Via values may be folded into one line (RFC 3261
      // §7.3.1); unfold into separate span-table entries (empties kept).
      size_t start = 0;
      while (true) {
        const size_t comma = value.find(',', start);
        AppendHeader(id, name,
                     Trim(comma == std::string_view::npos
                              ? value.substr(start)
                              : value.substr(start, comma - start)));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
    } else {
      AppendHeader(id, name, value);
    }
  }
  if (first_line) return false;

  // Mandatory structural fields must parse if present.
  if (const auto cseq = Header(HeaderId::kCseq)) {
    if (!ParseCSeqView(*cseq, cseq_)) return false;
    has_cseq_ = true;
  }

  std::string_view body = payload.substr(body_start);
  if (const auto len_text = Header(HeaderId::kContentLength)) {
    const auto len = ParseInt<size_t>(*len_text);
    if (!len) return false;
    if (*len > body.size()) return false;  // truncated message
    body = body.substr(0, *len);
  }
  body_ = body;
  return true;
}

Method LazyMessage::method() const {
  if (IsRequest()) return ParseMethod(method_token_);
  return has_cseq_ ? cseq_.method : Method::kUnknown;
}

std::optional<std::string_view> LazyMessage::Header(HeaderId id) const {
  if (id == HeaderId::kOther) return std::nullopt;
  for (size_t i = 0; i < header_count_; ++i) {
    const HeaderEntry& header = HeaderAt(i);
    if (header.id == id) return header.value;
  }
  return std::nullopt;
}

std::optional<std::string_view> LazyMessage::Header(
    std::string_view name) const {
  const HeaderId id = CanonicalHeaderId(name);
  if (id != HeaderId::kOther) return Header(id);
  for (size_t i = 0; i < header_count_; ++i) {
    const HeaderEntry& header = HeaderAt(i);
    if (header.id == HeaderId::kOther && IEquals(header.name, name)) {
      return header.value;
    }
  }
  return std::nullopt;
}

const ViaView* LazyMessage::TopVia() const {
  if (top_via_state_ == Memo::kUnparsed) {
    const auto value = Header(HeaderId::kVia);
    top_via_state_ = (value && ParseViaView(*value, top_via_)) ? Memo::kValid
                                                               : Memo::kInvalid;
  }
  return top_via_state_ == Memo::kValid ? &top_via_ : nullptr;
}

const NameAddrView* LazyMessage::MemoNameAddr(HeaderId id, Memo& state,
                                              NameAddrView& view) const {
  if (state == Memo::kUnparsed) {
    const auto value = Header(id);
    state = (value && ParseNameAddrView(*value, view)) ? Memo::kValid
                                                       : Memo::kInvalid;
  }
  return state == Memo::kValid ? &view : nullptr;
}

const NameAddrView* LazyMessage::From() const {
  return MemoNameAddr(HeaderId::kFrom, from_state_, from_);
}

const NameAddrView* LazyMessage::To() const {
  return MemoNameAddr(HeaderId::kTo, to_state_, to_);
}

}  // namespace vids::sip
