#ifndef ATUNE_TESTS_MATH_MATRIX_OF_H_
#define ATUNE_TESTS_MATH_MATRIX_OF_H_

#include <cstddef>
#include <initializer_list>

#include "math/matrix.h"

namespace atune {

/// Builds a matrix from nested row lists: MatrixOf({{1, 2}, {3, 4}}). Every
/// row must have the first row's length.
inline Matrix MatrixOf(
    std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.size() > 0 ? rows.begin()->size() : 0);
  size_t r = 0;
  for (const auto& row : rows) {
    size_t c = 0;
    for (double v : row) m.At(r, c++) = v;
    ++r;
  }
  return m;
}

}  // namespace atune

#endif  // ATUNE_TESTS_MATH_MATRIX_OF_H_
