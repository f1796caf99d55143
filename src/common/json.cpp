#include "common/json.hpp"

#include <array>
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

[[noreturn]] void fail(const char* message) {
  throw PreconditionError(message);
}

/// Character classes, by table: a store payload is mostly numbers, and
/// open() scans every one of their characters.
enum CharClass : unsigned char { kOther = 0, kSpace = 1, kNumber = 2 };

constexpr std::array<unsigned char, 256> kCharClass = [] {
  std::array<unsigned char, 256> table{};
  // The six characters std::isspace accepts in the C locale.
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    table[static_cast<unsigned char>(c)] = kSpace;
  for (const char c : {'.', 'e', 'E', '+', '-'})
    table[static_cast<unsigned char>(c)] = kNumber;
  for (char c = '0'; c <= '9'; ++c)
    table[static_cast<unsigned char>(c)] = kNumber;
  return table;
}();

bool is_space(char c) {
  return kCharClass[static_cast<unsigned char>(c)] == kSpace;
}

bool is_number_char(char c) {
  return kCharClass[static_cast<unsigned char>(c)] == kNumber;
}

}  // namespace

// Error messages are built only when a check fails, so a well-formed
// document costs no allocation beyond its own values.

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

char JsonReader::peek() {
  if (pos_ >= text_.size()) fail("Json::parse: unexpected end of input");
  return text_[pos_];
}

char JsonReader::next() {
  const char c = peek();
  ++pos_;
  return c;
}

void JsonReader::expect(char c) {
  if (next() != c)
    throw PreconditionError(std::string("Json::parse: expected '") + c + "'");
}

void JsonReader::open(char bracket) {
  skip_ws();
  expect(bracket);
  if (++depth_ > kMaxDepth) {
    throw PreconditionError("Json::parse: nesting deeper than " +
                            std::to_string(kMaxDepth) + " levels");
  }
  first_ = true;
}

void JsonReader::begin_object() { open('{'); }

void JsonReader::begin_array() { open('['); }

bool JsonReader::next_key(std::string_view& key) {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return false;
    }
  } else {
    const char c = next();
    if (c == '}') {
      --depth_;
      return false;
    }
    if (c != ',') fail("Json::parse: expected ',' or '}' in object");
    skip_ws();
  }
  key = string();
  skip_ws();
  expect(':');
  return true;
}

void JsonReader::key(std::string_view name) {
  std::string_view found;
  if (!next_key(found) || found != name)
    throw Error("Json: expected key '" + std::string(name) + "'");
}

void JsonReader::end_object() {
  std::string_view extra;
  if (next_key(extra))
    throw Error("Json: unexpected key '" + std::string(extra) + "'");
}

bool JsonReader::next_element() {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek() != ']') return true;
    ++pos_;
    --depth_;
    return false;
  }
  const char c = next();
  if (c == ']') {
    --depth_;
    return false;
  }
  if (c != ',') fail("Json::parse: expected ',' or ']' in array");
  return true;
}

void JsonReader::end() {
  skip_ws();
  if (pos_ != text_.size()) fail("Json::parse: trailing garbage");
}

Json JsonReader::literal() {
  const auto consume = [&](std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit)
      fail("Json::parse: bad literal");
    pos_ += lit.size();
  };
  switch (peek()) {
    case 't':
      consume("true");
      return Json(true);
    case 'f':
      consume("false");
      return Json(false);
    default:
      consume("null");
      return Json(nullptr);
  }
}

std::string_view JsonReader::scan_number() {
  skip_ws();
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) fail("Json::parse: bad number");
  return text_.substr(start, pos_ - start);
}

double JsonReader::number() {
  const std::string_view digits = scan_number();
  // std::from_chars is locale-independent (std::stod honors the process
  // locale and misparses under ',' decimal separators).
  double value = 0.0;
  const char* last = digits.data() + digits.size();
  const auto res = std::from_chars(digits.data(), last, value);
  if (res.ec != std::errc() || res.ptr != last)
    throw Error("Json::parse: bad number '" + std::string(digits) + "'");
  return value;
}

std::string_view JsonReader::string() {
  skip_ws();
  expect('"');
  const auto run_end = [&] {
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] != '"' && text_[end] != '\\')
      ++end;
    return end;
  };
  std::size_t run = pos_;
  pos_ = run_end();
  if (next() == '"') return text_.substr(run, pos_ - 1 - run);
  // Escapes: the string is rebuilt in the scratch buffer.
  scratch_.assign(text_, run, pos_ - 1 - run);
  while (true) {
    const char e = next();
    switch (e) {
      case '"':
        scratch_ += '"';
        break;
      case '\\':
        scratch_ += '\\';
        break;
      case '/':
        scratch_ += '/';
        break;
      case 'n':
        scratch_ += '\n';
        break;
      case 't':
        scratch_ += '\t';
        break;
      case 'r':
        scratch_ += '\r';
        break;
      case 'b':
        scratch_ += '\b';
        break;
      case 'f':
        scratch_ += '\f';
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
        append_utf8(scratch_, code);
        break;
      }
      default:
        fail("Json::parse: bad escape");
    }
    // Copy the run up to the next quote or backslash in one append.
    run = pos_;
    pos_ = run_end();
    scratch_.append(text_, run, pos_ - run);
    if (next() == '"') return scratch_;
  }
}

std::string_view JsonReader::skip() {
  skip_ws();
  const std::size_t start = pos_;
  switch (peek()) {
    case '{':
      begin_object();
      for (std::string_view key; next_key(key);) skip();
      break;
    case '[':
      begin_array();
      while (next_element()) skip();
      break;
    case '"':
      (void)string();
      break;
    case 't':
    case 'f':
    case 'n':
      (void)literal();
      break;
    default:
      (void)scan_number();
  }
  return text_.substr(start, pos_ - start);
}

Json JsonReader::value() {
  std::vector<Json> stack;
  return build(stack);
}

Json JsonReader::build(std::vector<Json>& stack) {
  skip_ws();
  switch (peek()) {
    case '{': {
      begin_object();
      Json::Object obj;
      for (std::string_view k; next_key(k);) {
        std::string key(k);
        Json v = build(stack);
        // Serialized objects arrive in key order, so the end hint makes
        // each insert O(1); a duplicate or out-of-order key keeps
        // last-wins.
        if (obj.empty() || obj.rbegin()->first < key) {
          obj.emplace_hint(obj.end(), std::move(key), std::move(v));
        } else {
          obj[std::move(key)] = std::move(v);
        }
      }
      return Json(std::move(obj));
    }
    case '[': {
      begin_array();
      // Elements collect on a stack shared by every nesting level, so each
      // array is allocated once at its exact size: growth slack would stay
      // in the parsed document for its whole lifetime.
      const std::size_t base = stack.size();
      while (next_element()) stack.push_back(build(stack));
      const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
      Json::Array arr(std::make_move_iterator(first),
                      std::make_move_iterator(stack.end()));
      stack.erase(first, stack.end());
      return Json(std::move(arr));
    }
    case '"':
      return Json(std::string(string()));
    case 't':
    case 'f':
    case 'n':
      return literal();
    default:
      return Json(number());
  }
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json v = reader.value();
  reader.end();
  return v;
}

}  // namespace ecotune
