#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
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
  [[nodiscard]] Array& as_array();
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
  [[nodiscard]] static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void dump_to(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace ecotune
