// One name table per enum, both directions generated from it. An enum opts
// in by declaring `NameTable<E> enum_names(E)` next to its definition (found
// by argument-dependent lookup); its rows list every spelling, and the first
// row of each value is the canonical name. `to_string` prints that name and
// `parse_enum<E>` accepts any spelling (the CLI vocabulary).
#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace llamcat {

/// One spelling of a value. Tables of non-enum values (the CLI's model and
/// op vocabularies) use the same row type.
template <typename T>
struct EnumName {
  T value;
  std::string_view name;
};

template <typename T>
using NameTable = std::span<const EnumName<T>>;

template <typename E>
concept NamedEnum = requires(E e) {
  { enum_names(e) } -> std::same_as<NameTable<E>>;
};

/// The canonical name of `e` ("?" for a value missing from its table).
template <NamedEnum E>
std::string to_string(E e) {
  for (const EnumName<E>& row : enum_names(e)) {
    if (row.value == e) return std::string(row.name);
  }
  return "?";
}

/// The value `s` names in `table`; nullopt for an unknown spelling.
template <typename T>
std::optional<T> lookup_name(NameTable<T> table, std::string_view s) {
  for (const EnumName<T>& row : table) {
    if (row.name == s) return row.value;
  }
  return std::nullopt;
}

/// The value any spelling of `s` names; nullopt for an unknown spelling.
template <NamedEnum E>
std::optional<E> parse_enum(std::string_view s) {
  return lookup_name(enum_names(E{}), s);
}

}  // namespace llamcat
