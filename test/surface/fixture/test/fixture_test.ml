module Fix = Surface_fixture.Fix

let probed = Fix.probe 1 + Fix.make ~tested:1 ()
