#include "xml/xml_parser.h"

#include <cstdio>
#include <vector>

#include "util/string_util.h"

namespace x3 {
namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Recursive-descent XML parser over a string_view.
class Parser {
 public:
  Parser(std::string_view input, const XmlParseOptions& options)
      : input_(input), options_(options) {}

  Result<XmlDocument> Parse() {
    SkipProlog();
    if (AtEnd()) return Error("document has no root element");
    X3_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseElement());
    SkipMisc();
    if (options_.require_single_root && !AtEnd()) {
      return Error("content after root element");
    }
    return XmlDocument(std::move(root));
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }

  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  bool Match(std::string_view token) {
    if (input_.substr(pos_, token.size()) != token) return false;
    AdvanceBy(token.size());
    return true;
  }

  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  void SkipSpace() {
    while (!AtEnd() && IsXmlSpace(Peek())) Advance();
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(
        StringPrintf("XML parse error at %zu:%zu: %s", line_, col_,
                     msg.c_str()));
  }

  /// XML declaration, DOCTYPE, comments, PIs and whitespace before root.
  void SkipProlog() {
    for (;;) {
      SkipSpace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<!DOCTYPE")) {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  /// Comments/PIs/whitespace after the root element.
  void SkipMisc() {
    for (;;) {
      SkipSpace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view close) {
    size_t found = input_.find(close, pos_);
    if (found == std::string_view::npos) {
      AdvanceBy(input_.size() - pos_);
    } else {
      AdvanceBy(found + close.size() - pos_);
    }
  }

  /// Skips <!DOCTYPE ...> including a bracketed internal subset.
  void SkipDoctype() {
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = Peek();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
      } else if (c == '>' && bracket_depth <= 0) {
        Advance();
        return;
      }
      Advance();
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decodes entity/char references in raw character data.
  Result<std::string> DecodeText(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") {
        out += '&';
      } else if (ent == "lt") {
        out += '<';
      } else if (ent == "gt") {
        out += '>';
      } else if (ent == "quot") {
        out += '"';
      } else if (ent == "apos") {
        out += '\'';
      } else if (!ent.empty() && ent[0] == '#') {
        X3_ASSIGN_OR_RETURN(uint32_t cp, ParseCharRef(ent.substr(1)));
        AppendUtf8(cp, &out);
      } else {
        return Error("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
    return out;
  }

  Result<uint32_t> ParseCharRef(std::string_view body) {
    if (body.empty()) return Error("empty character reference");
    uint32_t cp = 0;
    if (body[0] == 'x' || body[0] == 'X') {
      if (body.size() == 1) return Error("empty hex character reference");
      for (char c : body.substr(1)) {
        uint32_t d;
        if (c >= '0' && c <= '9') {
          d = static_cast<uint32_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          d = static_cast<uint32_t>(c - 'a' + 10);
        } else if (c >= 'A' && c <= 'F') {
          d = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          return Error("invalid hex character reference");
        }
        cp = cp * 16 + d;
        if (cp > 0x10FFFF) return Error("character reference out of range");
      }
    } else {
      for (char c : body) {
        if (c < '0' || c > '9') {
          return Error("invalid character reference");
        }
        cp = cp * 10 + static_cast<uint32_t>(c - '0');
        if (cp > 0x10FFFF) return Error("character reference out of range");
      }
    }
    return cp;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    char quote = Peek();
    Advance();
    size_t start = pos_;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '<') return Error("'<' in attribute value");
      Advance();
    }
    if (AtEnd()) return Error("unterminated attribute value");
    std::string_view raw = input_.substr(start, pos_ - start);
    Advance();  // closing quote
    return DecodeText(raw);
  }

  Result<std::unique_ptr<XmlNode>> ParseElement() {
    if (depth_ >= options_.max_depth) {
      return Error(StringPrintf("element nesting exceeds maximum depth %zu",
                                options_.max_depth));
    }
    ++depth_;
    Result<std::unique_ptr<XmlNode>> element = ParseElementInner();
    --depth_;
    return element;
  }

  Result<std::unique_ptr<XmlNode>> ParseElementInner() {
    if (!Match("<")) return Error("expected '<'");
    X3_ASSIGN_OR_RETURN(std::string tag, ParseName());
    auto element = XmlNode::Element(std::move(tag));
    // Attributes.
    for (;;) {
      SkipSpace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || LookingAt("/>")) break;
      X3_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipSpace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipSpace();
      X3_ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
      if (element->FindAttribute(attr_name) != nullptr) {
        return Error("duplicate attribute '" + attr_name + "'");
      }
      element->SetAttribute(std::move(attr_name), std::move(attr_value));
    }
    if (Match("/>")) return element;
    if (!Match(">")) return Error("expected '>'");
    X3_RETURN_IF_ERROR(ParseContent(element.get()));
    return element;
  }

  /// Parses children until the matching end tag is consumed.
  Status ParseContent(XmlNode* element) {
    std::string pending_text;
    auto flush_text = [&]() -> Status {
      if (pending_text.empty()) return Status::OK();
      bool all_space = true;
      for (char c : pending_text) {
        if (!IsXmlSpace(c)) {
          all_space = false;
          break;
        }
      }
      if (!(all_space && options_.skip_whitespace_text)) {
        X3_ASSIGN_OR_RETURN(std::string decoded, DecodeText(pending_text));
        element->AddText(std::move(decoded));
      }
      pending_text.clear();
      return Status::OK();
    };

    for (;;) {
      if (AtEnd()) {
        return Error("unterminated element <" + element->tag() + ">");
      }
      if (LookingAt("</")) {
        X3_RETURN_IF_ERROR(flush_text());
        AdvanceBy(2);
        X3_ASSIGN_OR_RETURN(std::string name, ParseName());
        if (name != element->tag()) {
          return Error("mismatched end tag </" + name + "> for <" +
                       element->tag() + ">");
        }
        SkipSpace();
        if (!Match(">")) return Error("expected '>' in end tag");
        return Status::OK();
      }
      if (LookingAt("<!--")) {
        X3_RETURN_IF_ERROR(flush_text());
        SkipUntil("-->");
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        AdvanceBy(9);
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated CDATA section");
        }
        // CDATA content is literal: bypass entity decoding by appending
        // directly as a text child after flushing pending raw text.
        X3_RETURN_IF_ERROR(flush_text());
        element->AddText(std::string(input_.substr(pos_, end - pos_)));
        AdvanceBy(end + 3 - pos_);
        continue;
      }
      if (LookingAt("<?")) {
        X3_RETURN_IF_ERROR(flush_text());
        SkipUntil("?>");
        continue;
      }
      if (Peek() == '<') {
        X3_RETURN_IF_ERROR(flush_text());
        X3_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child, ParseElement());
        element->AddChild(std::move(child));
        continue;
      }
      pending_text += Peek();
      Advance();
    }
  }

  std::string_view input_;
  XmlParseOptions options_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
  size_t depth_ = 0;
};

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input,
                             const XmlParseOptions& options) {
  // Skip a UTF-8 BOM if present.
  if (input.size() >= 3 && static_cast<unsigned char>(input[0]) == 0xEF &&
      static_cast<unsigned char>(input[1]) == 0xBB &&
      static_cast<unsigned char>(input[2]) == 0xBF) {
    input.remove_prefix(3);
  }
  Parser parser(input, options);
  return parser.Parse();
}

Result<XmlDocument> ParseXmlFile(const std::string& path, Env* env,
                                 const XmlParseOptions& options) {
  std::string buf;
  X3_RETURN_IF_ERROR(ReadFileToString(env, path, &buf));
  return ParseXml(buf, options);
}

Result<XmlDocument> ParseXmlFile(const std::string& path,
                                 const XmlParseOptions& options) {
  return ParseXmlFile(path, nullptr, options);
}

}  // namespace x3
