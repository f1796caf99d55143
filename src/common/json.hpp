#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ecotune {

/// Minimal JSON document model with parser and serializer. Supports the
/// subset needed by ecotune (tuning models, plugin configuration files):
/// null, bool, double, string, array, object. Object keys keep sorted order
/// (std::map) so serialization is deterministic.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Constructs null.
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  /// Factory helpers.
  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw Error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] int as_int() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object field access; const version throws if missing.
  Json& operator[](const std::string& key);
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] Json& at(const std::string& key);
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Array append.
  void push_back(Json v);

  /// Serializes; indent < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parses a JSON document; throws Error on malformed input.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

/// Pull reader over JSON text: walks a document token by token without
/// building a tree, so a decoder can read a stored payload straight into
/// its own types. Json::parse is built on the same tokenizer, so both
/// accept one grammar, fail with the same messages and share the nesting
/// limit.
///
/// Values are read in document order. An object is read as
///
///     r.begin_object();
///     for (std::string_view key; r.next_key(key);) { ...read the value... }
///
/// or, where the layout is fixed, member by member with key(name) and a
/// closing end_object(). Json writes object keys in sorted order, so a
/// decoder of a payload Json wrote reads its keys in that order.
class JsonReader {
 public:
  /// Nesting limit. Far above any document ecotune writes (a store line
  /// nests about ten levels), and low enough that the recursion stays a
  /// few hundred kilobytes of stack even in sanitizer builds.
  static constexpr int kMaxDepth = 512;

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Reads the next value into a tree.
  [[nodiscard]] Json value();

  /// Skips the next value and returns the text it spans. Its structure is
  /// checked; a number's characters are scanned but not converted.
  std::string_view skip();

  [[nodiscard]] double number();

  /// The next value as an unescaped string. The view points into the text,
  /// or, for a string with escapes, into a buffer the next string read
  /// overwrites.
  [[nodiscard]] std::string_view string();

  void begin_object();
  /// Moves to the next member of the current object: stores its key (valid
  /// until the next string read) and returns true, or consumes the closing
  /// '}' and returns false.
  [[nodiscard]] bool next_key(std::string_view& key);
  /// Reads the key of the next member, which must be `name`.
  void key(std::string_view name);
  /// Consumes the closing '}' of an object that has no members left.
  void end_object();

  void begin_array();
  /// Moves to the next element of the current array: returns true, or
  /// consumes the closing ']' and returns false.
  [[nodiscard]] bool next_element();

  /// Requires that nothing but whitespace is left.
  void end();

 private:
  [[nodiscard]] Json build(std::vector<Json>& stack);
  /// The literal at the cursor: true, false or null.
  [[nodiscard]] Json literal();
  /// Consumes a number's characters and returns them.
  std::string_view scan_number();
  void open(char bracket);
  void skip_ws();
  [[nodiscard]] char peek();
  char next();
  void expect(char c);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// Set by begin_object/begin_array: the container's first member or
  /// element takes no ','.
  bool first_ = false;
  std::string scratch_;  ///< unescaped text of the last escaped string
};

}  // namespace ecotune
