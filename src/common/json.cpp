#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace ecotune {

bool Json::as_bool() const {
  ensure(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  ensure(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

int Json::as_int() const {
  const double d = as_number();
  return static_cast<int>(std::llround(d));
}

const std::string& Json::as_string() const {
  ensure(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  ensure(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  ensure(is_array(), "Json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  ensure(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  ensure(is_object(), "Json: not an object");
  return std::get<Object>(value_);
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  ensure(is_object(), "Json::operator[]: not an object");
  return std::get<Object>(value_)[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  ensure(it != obj.end(), "Json::at: missing key '" + key + "'");
  return it->second;
}

Json& Json::at(const std::string& key) {
  return const_cast<Json&>(std::as_const(*this).at(key));
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  ensure(is_array(), "Json::push_back: not an array");
  std::get<Array>(value_).push_back(std::move(v));
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double d) {
  // std::to_chars: locale-independent shortest representation that parses
  // back to exactly the same double. The default-locale operator<< path
  // would emit ',' decimal separators under e.g. de_DE and break round
  // trips (and the measurement store's byte-identical warm replays).
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  out.append(buf, res.ptr);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ')
                  : std::string();
  const std::string closepad =
      indent >= 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ')
                  : std::string();
  const char* nl = indent >= 0 ? "\n" : "";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, std::get<double>(value_));
  } else if (is_string()) {
    dump_string(out, std::get<std::string>(value_));
  } else if (is_array()) {
    const auto& arr = std::get<Array>(value_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += closepad;
    out += ']';
  } else {
    const auto& obj = std::get<Object>(value_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [k, v] : obj) {
      out += pad;
      dump_string(out, k);
      out += indent >= 0 ? ": " : ":";
      v.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += closepad;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// UTF-8 encoding of an escaped code point (BMP only; surrogate pairs are
/// not needed here).
void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Recursive-descent JSON parser. Error messages are built only when a
/// check fails, so a well-formed document costs no allocation beyond its
/// own values.
class Parser {
 public:
  /// Nesting limit. Far above any document ecotune writes (a store line
  /// nests about ten levels), and low enough that the recursion stays a
  /// few hundred kilobytes of stack even in sanitizer builds.
  static constexpr int kMaxDepth = 512;

  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    skip_ws();
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("Json::parse: trailing garbage");
    return v;
  }

 private:
  [[noreturn]] static void fail(const char* message) {
    throw PreconditionError(message);
  }

  [[noreturn]] static void fail_expected(char c) {
    throw PreconditionError(std::string("Json::parse: expected '") + c + "'");
  }

  /// The six characters std::isspace accepts in the C locale.
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("Json::parse: unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail_expected(c);
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          throw PreconditionError("Json::parse: nesting deeper than " +
                                  std::to_string(kMaxDepth) + " levels");
        }
        Json v = c == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return Json(string());
      case 't':
        if (!consume_literal("true")) fail("Json::parse: bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("Json::parse: bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("Json::parse: bad literal");
        return Json(nullptr);
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      Json v = value();
      // Serialized objects arrive in key order, so the end hint makes each
      // insert O(1); a duplicate or out-of-order key keeps last-wins.
      if (obj.empty() || obj.rbegin()->first < key) {
        obj.emplace_hint(obj.end(), std::move(key), std::move(v));
      } else {
        obj[std::move(key)] = std::move(v);
      }
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("Json::parse: expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json array() {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(Json::Array{});
    }
    // Elements collect on a stack shared by every nesting level, so each
    // array is allocated once at its exact size: growth slack would stay
    // in the parsed document for its whole lifetime.
    const std::size_t base = stack_.size();
    while (true) {
      stack_.push_back(value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("Json::parse: expected ',' or ']' in array");
    }
    const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    Json::Array arr(std::make_move_iterator(first),
                    std::make_move_iterator(stack_.end()));
    stack_.erase(first, stack_.end());
    return Json(std::move(arr));
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\')
        ++pos_;
      out.append(text_, run, pos_ - run);
      const char c = next();
      if (c == '"') break;
      const char e = next();
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("Json::parse: bad \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("Json::parse: bad escape");
      }
    }
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
            c == '+' || c == '-'))
        break;
      ++pos_;
    }
    if (pos_ == start) fail("Json::parse: bad number");
    // std::from_chars is locale-independent (std::stod honors the process
    // locale and misparses under ',' decimal separators).
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto res = std::from_chars(first, last, value);
    if (res.ec != std::errc() || res.ptr != last) {
      throw Error("Json::parse: bad number '" +
                  text_.substr(start, pos_ - start) + "'");
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::vector<Json> stack_;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace ecotune
