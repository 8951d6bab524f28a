// Zero-copy, single-pass, lazily-decoded SIP parse layer.
//
// LazyMessage::Index makes one structural pass over a datagram payload and
// builds a span table: start-line kind, method/status spans, and one
// {canonical-name-id, value-span} entry per header (folded Via values are
// unfolded into separate entries, exactly like Message::Parse). It accepts
// and rejects precisely the same inputs as Message::Parse — the mutable
// Message codec is rebuilt on top of this lexer, and sip_lazy_test pins the
// equivalence property over generated and adversarial corpora.
//
// Typed views (ViaView, NameAddrView, UriView, CSeqView) are decoded
// lazily and memoized: TopVia()/From()/To()/Cseq() parse their header value
// at most once per indexed packet, store parameters in small inline arrays
// instead of std::map, and hand out string_views into the original payload.
//
// Lifetime invariant: every string_view produced by this class (header
// values, view fields, param names/values) points into the payload passed
// to Index(). Views must not outlive that buffer; re-indexing invalidates
// them. The IDS inspect path honors this by consuming the views inside the
// per-packet scope only and copying anything it retains.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/address.h"

namespace vids::sip {

enum class Method;  // message.h

/// Canonical header identities — one per entry of the canonical-name table
/// the serializer uses, so a span-table entry resolves its name without
/// materializing a string. kOther covers headers outside the table.
enum class HeaderId : uint8_t {
  kVia,
  kFrom,
  kTo,
  kCallId,
  kCseq,
  kContact,
  kContentType,
  kContentLength,
  kMaxForwards,
  kExpires,
  kUserAgent,
  kWwwAuthenticate,
  kAuthorization,
  kProxyAuthenticate,
  kProxyAuthorization,
  kRecordRoute,
  kRoute,
  kAllow,
  kSupported,
  kSubject,
  kOther,
};

/// RFC 3261 §7.3.3 compact-form expansion ("i" -> "Call-ID", ...).
std::string_view ExpandCompactHeader(std::string_view name);

/// Canonical spelling of a table header; empty for kOther.
std::string_view CanonicalHeaderName(HeaderId id);

/// Resolves a (possibly compact, case-insensitive) header name to its id.
HeaderId CanonicalHeaderId(std::string_view name);

/// One ";name=value" or ";flag" parameter. Views into the payload.
struct ParamView {
  std::string_view name;   // left of '=', not re-trimmed (parser parity)
  std::string_view value;  // right of '=', empty for flag parameters
};

/// Parameter list with inline capacity. Matches the std::map semantics of
/// the mutable codec's ParseParams: keys compare case-insensitively and the
/// last occurrence of a key wins.
class ParamList {
 public:
  void clear() { size_ = 0; }
  void push_back(ParamView param);
  size_t size() const { return size_; }
  const ParamView& operator[](size_t i) const {
    return i < kInline ? inline_[i] : overflow_[i - kInline];
  }
  /// Last parameter whose name matches `name` ASCII-case-insensitively, or
  /// nullptr. (insert_or_assign on a lowercased key == last-wins.)
  const ParamView* Find(std::string_view name) const;

 private:
  static constexpr size_t kInline = 8;
  size_t size_ = 0;
  std::array<ParamView, kInline> inline_{};
  std::vector<ParamView> overflow_;
};

/// A SIP URI, decoded without copying: sip:user@host[:port];params.
struct UriView {
  std::string_view user;
  std::string_view host;
  uint16_t port = 0;        // 0 = unspecified (default 5060)
  std::string_view params;  // everything after the first ';', verbatim
};

/// Decodes `text` with SipUri::Parse's exact semantics. Allocation-free.
bool ParseUriView(std::string_view text, UriView& out);

/// A From/To/Contact value: [display-name] <uri> ;params.
struct NameAddrView {
  std::string_view display_name;
  UriView uri;
  ParamList params;

  /// The "tag" parameter, or nullopt when absent. A present-but-empty tag
  /// yields an empty view (distinct from absent, like NameAddr::Tag()).
  std::optional<std::string_view> Tag() const {
    const ParamView* tag = params.Find("tag");
    if (tag == nullptr) return std::nullopt;
    return tag->value;
  }
};

/// One Via value: SIP/2.0/transport host[:port];branch=...;params.
struct ViaView {
  std::string_view transport;
  net::Endpoint sent_by;
  std::string_view branch;  // empty when the branch parameter is absent
  ParamList params;         // includes the branch parameter, if any
};

struct CSeqView {
  uint32_t number = 0;
  Method method{};  // always one of the six known methods (parse rejects else)
};

class LazyMessage {
 public:
  struct HeaderEntry {
    HeaderId id = HeaderId::kOther;
    std::string_view name;   // raw spelling, trimmed (compact forms stay "i")
    std::string_view value;  // trimmed; Via lines yield one entry per comma
  };

  /// Indexes one datagram payload. Returns false on exactly the inputs
  /// Message::Parse rejects (bad start line, a method or header name that
  /// is not an RFC 3261 token, header without colon, unparsable CSeq /
  /// Content-Length, truncated body, bad request URI).
  /// Invalidates all views handed out for the previous payload.
  bool Index(std::string_view payload);

  bool IsRequest() const { return status_ == 0; }
  bool IsResponse() const { return status_ != 0; }

  /// Request method token, verbatim ("INVITE", or an unknown spelling).
  std::string_view method_token() const { return method_token_; }
  /// For requests: the request-line method. For responses: the CSeq method
  /// (kUnknown when no CSeq is present). Mirrors Message::method().
  Method method() const;
  const UriView& request_uri() const { return request_uri_; }
  int status() const { return status_; }
  std::string_view reason() const { return reason_; }

  /// First value of the header, or nullopt. kOther is ambiguous (many
  /// header names share it) and always yields nullopt — use the name
  /// overload for non-table headers.
  std::optional<std::string_view> Header(HeaderId id) const;
  /// First value of the (case-insensitive, possibly compact) name.
  std::optional<std::string_view> Header(std::string_view name) const;

  size_t HeaderCount() const { return header_count_; }
  const HeaderEntry& HeaderAt(size_t i) const {
    return i < kInlineHeaders ? inline_headers_[i]
                              : overflow_headers_[i - kInlineHeaders];
  }

  std::optional<std::string_view> CallId() const {
    return Header(HeaderId::kCallId);
  }
  /// Body, already clamped to Content-Length when that header is present.
  std::string_view body() const { return body_; }

  // --- Memoized typed views (each decodes at most once per Index) ---
  /// nullptr when the header is absent or its value does not parse.
  const ViaView* TopVia() const;
  const NameAddrView* From() const;
  const NameAddrView* To() const;
  /// Never null after a successful Index *if* a CSeq header exists: Index
  /// rejects payloads whose CSeq does not parse. nullptr when absent.
  const CSeqView* Cseq() const { return has_cseq_ ? &cseq_ : nullptr; }

 private:
  enum class Memo : uint8_t { kUnparsed, kValid, kInvalid };

  void AppendHeader(HeaderId id, std::string_view name, std::string_view value);
  const NameAddrView* MemoNameAddr(HeaderId id, Memo& state,
                                   NameAddrView& view) const;

  static constexpr size_t kInlineHeaders = 32;

  // Start line.
  int status_ = 0;
  std::string_view method_token_;
  std::string_view reason_;
  UriView request_uri_;

  // Span table.
  size_t header_count_ = 0;
  std::array<HeaderEntry, kInlineHeaders> inline_headers_{};
  std::vector<HeaderEntry> overflow_headers_;
  std::string_view body_;

  // Eager CSeq (Index validates it) and lazy memoized views.
  bool has_cseq_ = false;
  CSeqView cseq_{};
  mutable Memo top_via_state_ = Memo::kUnparsed;
  mutable ViaView top_via_;
  mutable Memo from_state_ = Memo::kUnparsed;
  mutable NameAddrView from_;
  mutable Memo to_state_ = Memo::kUnparsed;
  mutable NameAddrView to_;
};

/// Decodes one Via value with Via::Parse's exact semantics. Allocation-free
/// (given the list stays within its inline capacity).
bool ParseViaView(std::string_view text, ViaView& out);

/// Decodes a name-addr / addr-spec with NameAddr::Parse's exact semantics.
bool ParseNameAddrView(std::string_view text, NameAddrView& out);

/// Decodes "number METHOD" with CSeq::Parse's exact semantics.
bool ParseCSeqView(std::string_view text, CSeqView& out);

}  // namespace vids::sip
