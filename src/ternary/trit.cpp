#include "ternary/trit.hpp"

#include <ostream>

namespace art9::ternary {

char Trit::to_char() const noexcept {
  switch (value_) {
    case -1:
      return '-';
    case 0:
      return '0';
    case +1:
      return '+';
    default:
      return '?';  // a value outside {-1, 0, +1} (unchecked construction)
  }
}

Trit Trit::from_char(char c) {
  switch (c) {
    case '-':
    case 'N':
    case 'n':
      return kTritN;
    case '0':
    case 'Z':
    case 'z':
      return kTritZ;
    case '+':
    case '1':
    case 'P':
    case 'p':
      return kTritP;
    default:
      throw std::invalid_argument(std::string("invalid trit character '") + c + "'");
  }
}

std::ostream& operator<<(std::ostream& os, Trit t) { return os << t.to_char(); }

}  // namespace art9::ternary
