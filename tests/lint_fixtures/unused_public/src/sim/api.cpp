// --unused-public fixture: the header's own pair, which never counts.
#include "sim/api.hpp"

namespace fx {

int Widget::size() const { return 1; }
void Widget::only_pair() { hidden(); }

}  // namespace fx
