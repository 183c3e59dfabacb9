// --unused-public fixture: a user outside the pair.  named_in_comment()
// here is a comment, not a use; the local `tally` is no use of the
// member Widget::tally().
#include "sim/api.hpp"

int main() {
    fx::Widget w = fx::make_widget(0x5E12'2026);
    const char* s = "named_in_comment()";
    const int tally = w.size();
    return tally + static_cast<int>(fx::Mode::A) + (s != nullptr ? 1 : 0);
}
