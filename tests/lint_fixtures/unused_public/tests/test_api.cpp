// --unused-public fixture: a test, which marks names [tests] but never
// counts as a user.
#include "sim/api.hpp"

void exercise(fx::Widget& w) {
    w.only_tests();
    (void)fx::Gadget::make(1);
}
