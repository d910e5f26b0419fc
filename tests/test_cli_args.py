"""cycstat.cmdline reads the command line as the argparse parser of commit
3f41897 read it.

The tables were recorded from that parser under Python 3.11.7, for the
arguments of every golden and benchmark command and of each of its quirks:
unique prefixes of long options, --opt=value, -d2 and -d=2, repeated
options, options on either side of EXPR, the first -- and what follows it,
and negative numbers, a lone - and arguments with a space, which are EXPR.
ACCEPTED gives the fields that differ from the command's defaults, REFUSED
the message after "error: ", and HELP what prints the usage.  The one stated
change is in ASCII: a number is [+-]?[0-9]+, where int() read other digits,
"_" and spaces too.
"""

import pytest

from cycstat import cmdline
from cycstat.cli import main

INVALID = (
    "argument command: invalid choice: {!r} (choose from 'moment', 'limit', 'verify', 'expand')"
)

DEFAULTS = {
    "moment": {"json": False, "cache": None, "d": 1, "lam": None, "variance": False},
    "limit": {"json": False, "cache": None, "mean": False, "variance": False},
    "verify": {"json": False, "cache": None, "nmax": 6, "d": 1},
    "expand": {"json": False, "cache": None},
}

ACCEPTED = [
    (('moment', 'exc', '-d', '1'), {'expr': 'exc'}),
    (('moment', 'exc', '-d', '1', '--json'), {'expr': 'exc', 'json': True}),
    (('moment', 'exc', '-d', '2'), {'expr': 'exc', 'd': 2}),
    (('moment', 'exc', '-d', '2', '--json'), {'expr': 'exc', 'json': True, 'd': 2}),
    (('moment', 'exc', '-d', '3'), {'expr': 'exc', 'd': 3}),
    (('moment', 'exc', '-d', '3', '--json'), {'expr': 'exc', 'json': True, 'd': 3}),
    (('moment', 'maj', '-d', '2'), {'expr': 'maj', 'd': 2}),
    (('moment', 'maj', '-d', '2', '--json'), {'expr': 'maj', 'json': True, 'd': 2}),
    (('moment', 'des', '-d', '2', '--variance'), {'expr': 'des', 'd': 2, 'variance': True}),
    (('moment', 'des', '-d', '2', '--variance', '--json'),
     {'expr': 'des', 'json': True, 'd': 2, 'variance': True}),
    (('moment', 'des', '-d', '1', '--lambda', '4,2,1'), {'expr': 'des', 'lam': '4,2,1'}),
    (('moment', 'des', '-d', '1', '--lambda', '4,2,1', '--json'),
     {'expr': 'des', 'json': True, 'lam': '4,2,1'}),
    (('moment', 'exc', '-d', '2', '--variance', '--lambda', '3,1'),
     {'expr': 'exc', 'd': 2, 'lam': '3,1', 'variance': True}),
    (('moment', 'exc', '-d', '2', '--variance', '--lambda', '3,1', '--json'),
     {'expr': 'exc', 'json': True, 'd': 2, 'lam': '3,1', 'variance': True}),
    (('limit', 'exc', '--mean'), {'expr': 'exc', 'mean': True}),
    (('limit', 'exc', '--mean', '--json'), {'expr': 'exc', 'json': True, 'mean': True}),
    (('limit', 'N(12)', '--mean'), {'expr': 'N(12)', 'mean': True}),
    (('limit', 'N(12)', '--mean', '--json'), {'expr': 'N(12)', 'json': True, 'mean': True}),
    (('limit', 'exc', '--variance'), {'expr': 'exc', 'variance': True}),
    (('limit', 'exc', '--variance', '--json'), {'expr': 'exc', 'json': True, 'variance': True}),
    (('limit', 'fix', '--variance'), {'expr': 'fix', 'variance': True}),
    (('limit', 'fix', '--variance', '--json'), {'expr': 'fix', 'json': True, 'variance': True}),
    (('verify', 'exc', '--nmax', '5', '-d', '2'), {'expr': 'exc', 'nmax': 5, 'd': 2}),
    (('verify', 'exc', '--nmax', '5', '-d', '2', '--json'),
     {'expr': 'exc', 'json': True, 'nmax': 5, 'd': 2}),
    (('verify', 'biv(21;A={1};B={};f=x1;g=1)', '--nmax', '4', '-d', '2'),
     {'expr': 'biv(21;A={1};B={};f=x1;g=1)', 'nmax': 4, 'd': 2}),
    (('verify', 'biv(21;A={1};B={};f=x1;g=1)', '--nmax', '4', '-d', '2', '--json'),
     {'expr': 'biv(21;A={1};B={};f=x1;g=1)', 'json': True, 'nmax': 4, 'd': 2}),
    (('expand', 'maj^2'), {'expr': 'maj^2'}),
    (('expand', 'maj^2', '--json'), {'expr': 'maj^2', 'json': True}),
    (('expand', 'N(21;A={1})^2'), {'expr': 'N(21;A={1})^2'}),
    (('expand', 'N(21;A={1})^2', '--json'), {'expr': 'N(21;A={1})^2', 'json': True}),
    (('expand', 'biv(21;A={1};B={};f=x1^2;g=x2^2)^2'),
     {'expr': 'biv(21;A={1};B={};f=x1^2;g=x2^2)^2'}),
    (('expand', 'biv(21;A={1};B={};f=x1^2;g=x2^2)^2', '--json'),
     {'expr': 'biv(21;A={1};B={};f=x1^2;g=x2^2)^2', 'json': True}),
    (('moment', 'bogus(', '-d', '1'), {'expr': 'bogus('}),
    (('moment', 'bogus(', '-d', '1', '--json'), {'expr': 'bogus(', 'json': True}),
    (('verify', 'exc', '--nmax', '9'), {'expr': 'exc', 'nmax': 9}),
    (('verify', 'exc', '--nmax', '9', '--json'), {'expr': 'exc', 'json': True, 'nmax': 9}),
    (('limit', 'des', '--mean'), {'expr': 'des', 'mean': True}),
    (('limit', 'des', '--mean', '--json'), {'expr': 'des', 'json': True, 'mean': True}),
    (('limit', 'maj', '--mean'), {'expr': 'maj', 'mean': True}),
    (('limit', 'maj', '--mean', '--json'), {'expr': 'maj', 'json': True, 'mean': True}),
    (('limit', 'inv', '--mean'), {'expr': 'inv', 'mean': True}),
    (('limit', 'inv', '--mean', '--json'), {'expr': 'inv', 'json': True, 'mean': True}),
    (('limit', 'cyc2', '--mean'), {'expr': 'cyc2', 'mean': True}),
    (('limit', 'cyc2', '--mean', '--json'), {'expr': 'cyc2', 'json': True, 'mean': True}),
    (('limit', 'fix', '--mean'), {'expr': 'fix', 'mean': True}),
    (('limit', 'fix', '--mean', '--json'), {'expr': 'fix', 'json': True, 'mean': True}),
    (('limit', 'N(123)', '--mean'), {'expr': 'N(123)', 'mean': True}),
    (('limit', 'N(123)', '--mean', '--json'), {'expr': 'N(123)', 'json': True, 'mean': True}),
    (('limit', '2*exc + 1/2*fix', '--mean'), {'expr': '2*exc + 1/2*fix', 'mean': True}),
    (('limit', '2*exc + 1/2*fix', '--mean', '--json'),
     {'expr': '2*exc + 1/2*fix', 'json': True, 'mean': True}),
    (('limit', '3', '--mean'), {'expr': '3', 'mean': True}),
    (('limit', '3', '--mean', '--json'), {'expr': '3', 'json': True, 'mean': True}),
    (('limit', 'des', '--variance'), {'expr': 'des', 'variance': True}),
    (('limit', 'des', '--variance', '--json'), {'expr': 'des', 'json': True, 'variance': True}),
    (('limit', 'maj', '--variance'), {'expr': 'maj', 'variance': True}),
    (('limit', 'maj', '--variance', '--json'), {'expr': 'maj', 'json': True, 'variance': True}),
    (('limit', 'exc - des', '--variance'), {'expr': 'exc - des', 'variance': True}),
    (('limit', 'exc - des', '--variance', '--json'),
     {'expr': 'exc - des', 'json': True, 'variance': True}),
    (('expand', 'exc^4'), {'expr': 'exc^4'}),
    (('expand', 'exc^4', '--json'), {'expr': 'exc^4', 'json': True}),
    (('expand', 'cyc2^4'), {'expr': 'cyc2^4'}),
    (('expand', 'cyc2^4', '--json'), {'expr': 'cyc2^4', 'json': True}),
    (('moment', 'biv(1;A={};B={};f=x1^6;g=1)', '-d', '2'),
     {'expr': 'biv(1;A={};B={};f=x1^6;g=1)', 'd': 2}),
    (('moment', 'biv(1;A={};B={};f=x1^6;g=1)', '-d', '2', '--json'),
     {'expr': 'biv(1;A={};B={};f=x1^6;g=1)', 'json': True, 'd': 2}),
    (('moment', 'biv(21;A={1};B={};f=x1^2;g=x2^2)', '-d', '1'),
     {'expr': 'biv(21;A={1};B={};f=x1^2;g=x2^2)'}),
    (('moment', 'biv(21;A={1};B={};f=x1^2;g=x2^2)', '-d', '1', '--json'),
     {'expr': 'biv(21;A={1};B={};f=x1^2;g=x2^2)', 'json': True}),
    (('moment', 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', '-d', '1'),
     {'expr': 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)'}),
    (('moment', 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', '-d', '1', '--json'),
     {'expr': 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', 'json': True}),
    (('moment', 'T(U=(1,2);V=(2,3);C={1};f=x2)', '-d', '1', '--lambda', '2'),
     {'expr': 'T(U=(1,2);V=(2,3);C={1};f=x2)', 'lam': '2'}),
    (('moment', 'T(U=(1,2);V=(2,3);C={1};f=x2)', '-d', '1', '--lambda', '2', '--json'),
     {'expr': 'T(U=(1,2);V=(2,3);C={1};f=x2)', 'json': True, 'lam': '2'}),
    (('moment', 'N(123;A={1,2})', '-d', '1'), {'expr': 'N(123;A={1,2})'}),
    (('moment', 'N(123;A={1,2})', '-d', '1', '--json'), {'expr': 'N(123;A={1,2})', 'json': True}),
    (('moment', 'maj', '-d', '2', '--lambda', '3,1'), {'expr': 'maj', 'd': 2, 'lam': '3,1'}),
    (('moment', 'maj', '-d', '2', '--lambda', '3,1', '--json'),
     {'expr': 'maj', 'json': True, 'd': 2, 'lam': '3,1'}),
    (('verify', 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', '--nmax', '5', '-d', '2'),
     {'expr': 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', 'nmax': 5, 'd': 2}),
    (('verify', 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', '--nmax', '5', '-d', '2', '--json'),
     {'expr': 'biv(12;A={1};B={1};f=x1*x2;g=x1+x2)', 'json': True, 'nmax': 5, 'd': 2}),
    (('moment', 'exc', '-d', '4'), {'expr': 'exc', 'd': 4}),
    (('moment', 'exc', '-d', '4', '--json'), {'expr': 'exc', 'json': True, 'd': 4}),
    (('moment', 'cyc2', '-d', '4'), {'expr': 'cyc2', 'd': 4}),
    (('moment', 'cyc2', '-d', '4', '--json'), {'expr': 'cyc2', 'json': True, 'd': 4}),
    (('moment', 'N(123)', '-d', '1'), {'expr': 'N(123)'}),
    (('moment', 'N(123)', '-d', '1', '--json'), {'expr': 'N(123)', 'json': True}),
    (('verify', 'exc', '--nmax', '4', '-d', '3'), {'expr': 'exc', 'nmax': 4, 'd': 3}),
    (('verify', 'exc', '--nmax', '4', '-d', '3', '--json'),
     {'expr': 'exc', 'json': True, 'nmax': 4, 'd': 3}),
    (('moment', 'exc', '-d', '5'), {'expr': 'exc', 'd': 5}),
    (('moment', 'exc', '-d', '5', '--json'), {'expr': 'exc', 'json': True, 'd': 5}),
    (('moment', 'N(1234)', '-d', '1'), {'expr': 'N(1234)'}),
    (('moment', 'N(1234)', '-d', '1', '--json'), {'expr': 'N(1234)', 'json': True}),
    (('expand', '--json', '--', '3'), {'expr': '3', 'json': True}),
    (('expand', '--json', '--', '1/2'), {'expr': '1/2', 'json': True}),
    (('expand', '--json', '--', '-1/2'), {'expr': '-1/2', 'json': True}),
    (('expand', '--json', '--', '-2*des'), {'expr': '-2*des', 'json': True}),
    (('expand', '--json', '--', '0'), {'expr': '0', 'json': True}),
    (('expand', '--json', '--', '0*exc'), {'expr': '0*exc', 'json': True}),
    (('expand', '--json', '--', '2*3*exc'), {'expr': '2*3*exc', 'json': True}),
    (('expand', '--json', '--', '2*3'), {'expr': '2*3', 'json': True}),
    (('expand', '--json', '--', 'exc^2^2'), {'expr': 'exc^2^2', 'json': True}),
    (('expand', '--json', '--', 'exc + des'), {'expr': 'exc + des', 'json': True}),
    (('expand', '--json', '--', 'exc - des + fix'), {'expr': 'exc - des + fix', 'json': True}),
    (('expand', '--json', '--', 'maj - des - 1'), {'expr': 'maj - des - 1', 'json': True}),
    (('expand', '--json', '--', '2*exc + 1/2*fix'), {'expr': '2*exc + 1/2*fix', 'json': True}),
    (('expand', '--json', '--', '1 - exc'), {'expr': '1 - exc', 'json': True}),
    (('expand', '--json', '--', '-1 + 2*3*4*fix'), {'expr': '-1 + 2*3*4*fix', 'json': True}),
    (('expand', '--json', '--', 'exc - exc'), {'expr': 'exc - exc', 'json': True}),
    (('expand', '--json', '--', '1/2 + 1/3'), {'expr': '1/2 + 1/3', 'json': True}),
    (('expand', '--json', '--', 'exc^2 - 2*exc + 1'), {'expr': 'exc^2 - 2*exc + 1', 'json': True}),
    (('expand', '--json', '--', '2*-3*exc'), {'expr': '2*-3*exc', 'json': True}),
    (('expand', '--json', '--', 'exc - -1'), {'expr': 'exc - -1', 'json': True}),
    (('expand', '--json', '--', 'exc + -2*des'), {'expr': 'exc + -2*des', 'json': True}),
    (('expand', '--json', '--', '-2*exc^2'), {'expr': '-2*exc^2', 'json': True}),
    (('expand', '--json', '--', '-3/4*maj + 5'), {'expr': '-3/4*maj + 5', 'json': True}),
    (('expand', '--json', '--', '1/2*N(12)'), {'expr': '1/2*N(12)', 'json': True}),
    (('expand', '--json', '--', 'cyc2 + inv'), {'expr': 'cyc2 + inv', 'json': True}),
    (('expand', '--json', '--', 'N(21;A={1})'), {'expr': 'N(21;A={1})', 'json': True}),
    (('expand', '--json', '--', 'N(123;A={1,2})'), {'expr': 'N(123;A={1,2})', 'json': True}),
    (('expand', '--json', '--', 'biv(21;A={1};B={};f=-x1;g=1)'),
     {'expr': 'biv(21;A={1};B={};f=-x1;g=1)', 'json': True}),
    (('expand', '--json', '--', 'biv(21;A={1};B={};f=(x1+1)*(x2-1);g=x1^0)'),
     {'expr': 'biv(21;A={1};B={};f=(x1+1)*(x2-1);g=x1^0)', 'json': True}),
    (('expand', '--json', '--', 'biv(12;A={};B={1};f=-(x1-x2)^2;g=2*-x2)'),
     {'expr': 'biv(12;A={};B={1};f=-(x1-x2)^2;g=2*-x2)', 'json': True}),
    (('expand', '--json', '--', 'biv(1;A={};B={};f=x1^0;g=1)'),
     {'expr': 'biv(1;A={};B={};f=x1^0;g=1)', 'json': True}),
    (('expand', '--json', '--', 'biv(21;A={1};B={};f=(-x1)^3;g=((x2)))'),
     {'expr': 'biv(21;A={1};B={};f=(-x1)^3;g=((x2)))', 'json': True}),
    (('expand', '--json', '--', 'T(U=(1,2);V=(2,1);C={1};f=x1^2 - 1/2*x2 + 3)'),
     {'expr': 'T(U=(1,2);V=(2,1);C={1};f=x1^2 - 1/2*x2 + 3)', 'json': True}),
    (('expand', '--json', '--', 'T(U=(1);V=(1);C={};f=-x1)'),
     {'expr': 'T(U=(1);V=(1);C={};f=-x1)', 'json': True}),
    (('expand', '--json', '--', 'T(U=(1,2);V=(2,3);C={1};f=-(x1+x2)*x3^0 - -1)'),
     {'expr': 'T(U=(1,2);V=(2,3);C={1};f=-(x1+x2)*x3^0 - -1)', 'json': True}),
    (('expand', '--json', '--', 'T(U=(1);V=(2);C={};f=2^3*x1 - 1/3)'),
     {'expr': 'T(U=(1);V=(2);C={};f=2^3*x1 - 1/3)', 'json': True}),
    (('expand', '--json', '--', 'T(U=(1);V=(2);C={};f=-x1^2)'),
     {'expr': 'T(U=(1);V=(2);C={};f=-x1^2)', 'json': True}),
    (('expand', '--json', '--', '3*T(U=(1);V=(2);C={};f=1/3)'),
     {'expr': '3*T(U=(1);V=(2);C={};f=1/3)', 'json': True}),
    (('verify', 'maj', '--nmax', '6', '-d', '2'), {'expr': 'maj', 'd': 2}),
    (('verify', 'maj', '--nmax', '6', '-d', '2', '--json'), {'expr': 'maj', 'json': True, 'd': 2}),
    (('verify', 'T(U=(1,2);V=(2,1);C={};f=1/2)', '--nmax', '6', '-d', '2'),
     {'expr': 'T(U=(1,2);V=(2,1);C={};f=1/2)', 'd': 2}),
    (('verify', 'T(U=(1,2);V=(2,1);C={};f=1/2)', '--nmax', '6', '-d', '2', '--json'),
     {'expr': 'T(U=(1,2);V=(2,1);C={};f=1/2)', 'json': True, 'd': 2}),
    (('verify', 'N(21;A={1})', '--nmax', '6', '-d', '2'), {'expr': 'N(21;A={1})', 'd': 2}),
    (('verify', 'N(21;A={1})', '--nmax', '6', '-d', '2', '--json'),
     {'expr': 'N(21;A={1})', 'json': True, 'd': 2}),
    (('verify', 'exc*des', '--nmax', '5', '-d', '1'), {'expr': 'exc*des', 'nmax': 5}),
    (('verify', 'exc*des', '--nmax', '5', '-d', '1', '--json'),
     {'expr': 'exc*des', 'json': True, 'nmax': 5}),
    (('verify', 'fix', '--nmax', '7', '-d', '3'), {'expr': 'fix', 'nmax': 7, 'd': 3}),
    (('verify', 'fix', '--nmax', '7', '-d', '3', '--json'),
     {'expr': 'fix', 'json': True, 'nmax': 7, 'd': 3}),
    (('verify', 'exc', '--nmax', '7', '-d', '2'), {'expr': 'exc', 'nmax': 7, 'd': 2}),
    (('moment', 'exc', '-d', '2', '--var'), {'expr': 'exc', 'd': 2, 'variance': True}),
    (('verify', 'exc', '--nm', '3'), {'expr': 'exc', 'nmax': 3}),
    (('moment', 'exc', '--lam', '2,1'), {'expr': 'exc', 'lam': '2,1'}),
    (('moment', 'exc', '--lamb=3'), {'expr': 'exc', 'lam': '3'}),
    (('moment', 'exc', '--js'), {'expr': 'exc', 'json': True}),
    (('moment', 'exc', '--ca', 'c.json'), {'expr': 'exc', 'cache': 'c.json'}),
    (('limit', 'exc', '--me'), {'expr': 'exc', 'mean': True}),
    (('limit', 'exc', '--v'), {'expr': 'exc', 'variance': True}),
    (('limit', 'exc', '--m', '--j'), {'expr': 'exc', 'json': True, 'mean': True}),
    (('moment', 'exc', '-d2'), {'expr': 'exc', 'd': 2}),
    (('moment', 'exc', '-d=2'), {'expr': 'exc', 'd': 2}),
    (('moment', 'exc', '--lambda=2,1'), {'expr': 'exc', 'lam': '2,1'}),
    (('verify', 'exc', '--nmax=5', '-d3'), {'expr': 'exc', 'nmax': 5, 'd': 3}),
    (('moment', 'exc', '-d-1'), {'expr': 'exc', 'd': -1}),
    (('moment', 'exc', '--lambda='), {'expr': 'exc', 'lam': ''}),
    (('moment', 'exc', '--cache='), {'expr': 'exc', 'cache': ''}),
    (('moment', 'exc', '--cache=a=b'), {'expr': 'exc', 'cache': 'a=b'}),
    (('moment', 'exc', '-d', '2', '-d', '3'), {'expr': 'exc', 'd': 3}),
    (('moment', 'exc', '--lambda', '1', '--lambda', '2'), {'expr': 'exc', 'lam': '2'}),
    (('moment', 'exc', '--cache', 'a', '--cache', 'b'), {'expr': 'exc', 'cache': 'b'}),
    (('moment', 'exc', '--json', '--json'), {'expr': 'exc', 'json': True}),
    (('verify', 'exc', '--nmax', '3', '--nmax', '4'), {'expr': 'exc', 'nmax': 4}),
    (('limit', 'exc', '--mean', '--mean'), {'expr': 'exc', 'mean': True}),
    (('limit', 'exc', '--variance', '--variance'), {'expr': 'exc', 'variance': True}),
    (('moment', '-d', '2', 'exc'), {'expr': 'exc', 'd': 2}),
    (('moment', '--json', 'exc'), {'expr': 'exc', 'json': True}),
    (('verify', '--nmax', '3', '-d', '2', 'exc'), {'expr': 'exc', 'nmax': 3, 'd': 2}),
    (('limit', '--mean', 'exc'), {'expr': 'exc', 'mean': True}),
    (('moment', '--cache', 'c', 'exc', '-d', '2'), {'expr': 'exc', 'cache': 'c', 'd': 2}),
    (('expand', '--json', 'exc', '--cache', 'c'), {'expr': 'exc', 'json': True, 'cache': 'c'}),
    (('moment', '--', '-2*des'), {'expr': '-2*des'}),
    (('moment', '-d', '2', '--', '-2*des'), {'expr': '-2*des', 'd': 2}),
    (('moment', 'exc', '--'), {'expr': 'exc'}),
    (('moment', '--', '--json'), {'expr': '--json'}),
    (('moment', '--', '--'), {'expr': '--'}),
    (('moment', '--', '--help'), {'expr': '--help'}),
    (('expand', '--', '-x1'), {'expr': '-x1'}),
    (('limit', '--mean', '--', '-exc'), {'expr': '-exc', 'mean': True}),
    (('moment', '-2'), {'expr': '-2'}),
    (('moment', '-2.5'), {'expr': '-2.5'}),
    (('moment', '-.5'), {'expr': '-.5'}),
    (('moment', '--', '-2'), {'expr': '-2'}),
    (('moment', '-d', '-1', 'exc'), {'expr': 'exc', 'd': -1}),
    (('moment', 'exc', '-d', '-1'), {'expr': 'exc', 'd': -1}),
    (('moment', '-'), {'expr': '-'}),
    (('moment', '-2 * des'), {'expr': '-2 * des'}),
    (('moment', '- exc'), {'expr': '- exc'}),
    (('moment', '-d', '2', '-2 * des'), {'expr': '-2 * des', 'd': 2}),
    (('limit', '-1 * exc', '--mean'), {'expr': '-1 * exc', 'mean': True}),
    (('moment', 'exc', '--lambda', '-2'), {'expr': 'exc', 'lam': '-2'}),
    (('moment', 'exc', '--cache', '-'), {'expr': 'exc', 'cache': '-'}),
    (('moment', 'exc', '--cache', '-2.5'), {'expr': 'exc', 'cache': '-2.5'}),
    (('moment', 'exc', '--cache', 'a b'), {'expr': 'exc', 'cache': 'a b'}),
    (('moment', 'exc', '--cache', '-a b'), {'expr': 'exc', 'cache': '-a b'}),
    (('moment', '−exc'), {'expr': '−exc'}),
    (('moment', '-٢'), {'expr': '-٢'}),
    (('moment', '-2\n'), {'expr': '-2\n'}),
    (('moment', ''), {'expr': ''}),
    (('moment', 'exc', '--cache', ''), {'expr': 'exc', 'cache': ''}),
    (('moment', 'exc', '-d', '+2'), {'expr': 'exc', 'd': 2}),
    (('moment', 'exc', '-d', '007'), {'expr': 'exc', 'd': 7}),
    (('moment', 'exc', '-d', '-0'), {'expr': 'exc', 'd': 0}),
    (('verify', 'exc', '--nmax', '+3'), {'expr': 'exc', 'nmax': 3}),
    (('moment', 'exc', '-d', "9" * 4300), {'expr': 'exc', 'd': int("9" * 4300)}),
]

REFUSED = [
    (('moment', 'exc', '--d', '2'), 'unrecognized arguments: --d 2'),
    (('moment', 'exc', '--Json'), 'unrecognized arguments: --Json'),
    (('moment', 'exc', '-json'), 'unrecognized arguments: -json'),
    (('moment', 'exc', '-d='), "argument -d: invalid int value: ''"),
    (('moment', 'exc', '--json=1'), "argument --json: ignored explicit argument '1'"),
    (('moment', 'exc', '--variance='), "argument --variance: ignored explicit argument ''"),
    (('moment', 'exc', '--=x'),
     'ambiguous option: --=x could match --help, --json, --cache, --lambda, --variance'),
    (('moment', 'exc', '-dx'), "argument -d: invalid int value: 'x'"),
    (('moment', '--', 'exc', '-d', '2'), 'unrecognized arguments: -d 2'),
    (('moment', '--'), 'the following arguments are required: expr'),
    (('moment', '--', 'exc', '--'), 'unrecognized arguments: --'),
    (('moment', 'exc', '--', '--json'), 'unrecognized arguments: --json'),
    (('moment', '-d', '--', '2', 'exc'), 'argument -d: expected one argument'),
    (('moment', 'exc', '-d', '--'), 'argument -d: expected one argument'),
    (('moment', '-d', '2', '--'), 'the following arguments are required: expr'),
    (('--', 'moment', 'exc'),
     INVALID.format("--")),
    (('moment', '--', '-d', 'exc'), 'unrecognized arguments: exc'),
    (('moment', '-2.'), 'the following arguments are required: expr'),
    (('moment', 'exc', '-d', '2', '-'), 'unrecognized arguments: -'),
    (('moment', 'exc', '-d', '-2 * des'), "argument -d: invalid int value: '-2 * des'"),
    (('moment', 'exc', '--lambda', '-2,1'), 'argument --lambda: expected one argument'),
    (('moment', '-x1'), 'the following arguments are required: expr'),
    (('moment', '-exc'), 'the following arguments are required: expr'),
    (('limit', 'exc', '--mean', '--variance'),
     'argument --variance: not allowed with argument --mean'),
    (('limit', 'exc'), 'one of the arguments --mean --variance is required'),
    (('limit', 'exc', '--variance', '--mean'),
     'argument --mean: not allowed with argument --variance'),
    (('limit', '--mean'), 'the following arguments are required: expr'),
    (('limit',), 'the following arguments are required: expr'),
    (('moment', 'exc', '--cache', '-x'), 'argument --cache: expected one argument'),
    (('moment', 'exc', 'extra'), 'unrecognized arguments: extra'),
    (('moment', 'exc', '-d'), 'argument -d: expected one argument'),
    (('moment', 'exc', '--lambda'), 'argument --lambda: expected one argument'),
    (('moment', 'exc', '--cache'), 'argument --cache: expected one argument'),
    (('verify', 'exc', '--nmax'), 'argument --nmax: expected one argument'),
    (('bogus', 'exc'),
     INVALID.format("bogus")),
    (('mom', 'exc'),
     INVALID.format("mom")),
    ((), 'the following arguments are required: command'),
    (('moment',), 'the following arguments are required: expr'),
    (('--json', 'moment', 'exc'), 'unrecognized arguments: --json'),
    (('-d', '2', 'moment', 'exc'),
     INVALID.format("2")),
    (('moment', 'exc', '--bell-cap', '12'), 'unrecognized arguments: --bell-cap 12'),
    (('moment', 'exc', '-x'), 'unrecognized arguments: -x'),
    (('moment', 'exc', '-d', 'x'), "argument -d: invalid int value: 'x'"),
    (('moment', 'exc', '-d', ''), "argument -d: invalid int value: ''"),
    (('moment', 'exc1', 'exc2', '-d', '2'), 'unrecognized arguments: exc2'),
    (('moment', '--foo', 'exc'), 'unrecognized arguments: --foo'),
    (('limit', 'exc', '--mean', '-d', '2'), 'unrecognized arguments: -d 2'),
    (('verify', 'exc', '--variance'), 'unrecognized arguments: --variance'),
    (('expand', 'exc', '-d', '2'), 'unrecognized arguments: -d 2'),
    (('expand', 'exc', '--lambda', '2'), 'unrecognized arguments: --lambda 2'),
    (('moment', 'exc', '--mean'), 'unrecognized arguments: --mean'),
    (('verify', 'exc', '--lambda', '2'), 'unrecognized arguments: --lambda 2'),
    (('moment', 'exc', '-d', "9" * 5000), f"argument -d: invalid int value: '{'9' * 5000}'"),
    (('moment', 'exc', '--variance', '-d', '2', '--bogus=1', '-y'),
     'unrecognized arguments: --bogus=1 -y'),
    (('moment', 'exc', '-hx'), "argument -h/--help: ignored explicit argument 'x'"),
    (('moment', 'exc', '-hd'), 'argument -d: expected one argument'),
    (('-x',), 'the following arguments are required: command'),
    (('--help=x',), "argument -h/--help: ignored explicit argument 'x'"),
    (('moment', 'exc', '--help=x'), "argument -h/--help: ignored explicit argument 'x'"),
    (('-hx', 'moment', 'exc'), "argument -h/--help: ignored explicit argument 'x'"),
    (('moment', '-d', 'x', '-h'), "argument -d: invalid int value: 'x'"),
    (('limit', 'exc', '--mean', '--variance', '--help'),
     'argument --variance: not allowed with argument --mean'),
    (('bogus', '-h'),
     INVALID.format("bogus")),
]

HELP = [
    ('-h',),
    ('--help',),
    ('--he',),
    ('-hh',),
    ('moment', '-h'),
    ('moment', 'exc', '--help'),
    ('moment', 'exc', '--he'),
    ('limit', '--h'),
    ('verify', 'exc', '-d', '2', '-h'),
    ('moment', '-h', '-d', 'x'),
    ('moment', 'exc', '--bogus', '--help'),
    ('-h', 'moment'),
    ('--json', '-h'),
    ('-h', 'bogus'),
    ('moment', 'exc', '-hd', '2'),
    ('moment', 'exc', '-hh'),
    ('limit', 'exc', '--help', '--mean', '--variance'),
    ('expand', '-h'),
]

# argparse read each of these numbers with int(), as the comment gives: the
# option and the text it now refuses
ASCII = [
    (("moment", "exc", "-d", "\u0662"), "-d", "\u0662"),  # d = 2, an Arabic-Indic two
    (("moment", "exc", "-d", "\uff12"), "-d", "\uff12"),  # d = 2, a fullwidth two
    (("moment", "exc", "-d", "1_0"), "-d", "1_0"),  # d = 10
    (("moment", "exc", "-d", " 2"), "-d", " 2"),  # d = 2
    (("moment", "exc", "-d", "2 "), "-d", "2 "),  # d = 2
    (("moment", "exc", "-d", "-2\n"), "-d", "-2\n"),  # d = -2
    (("moment", "exc", "-d", "-\u0662"), "-d", "-\u0662"),  # d = -2
    (("moment", "exc", "-d\u0662"), "-d", "\u0662"),  # d = 2
    (("verify", "exc", "--nmax", "\u0663"), "--nmax", "\u0663"),  # nmax = 3
    (("verify", "exc", "-d", "1", "--nmax", "4_0"), "--nmax", "4_0"),  # nmax = 40
]


def run(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def ids(rows):
    return [" ".join(row[0])[:60] for row in rows]


@pytest.mark.parametrize("argv, fields", ACCEPTED, ids=ids(ACCEPTED))
def test_accepted(argv, fields):
    command = argv[0]
    expected = {"command": command, **DEFAULTS[command], **fields}
    assert vars(cmdline.parse_args(list(argv))) == expected


@pytest.mark.parametrize("argv, message", REFUSED, ids=ids(REFUSED))
def test_refused(capsys, argv, message):
    # the usage block and one error line, with no traceback and no SystemExit
    assert run(capsys, argv) == (2, "", f"{cmdline.USAGE}error: {message}\n")


@pytest.mark.parametrize("argv", HELP, ids=[" ".join(argv) for argv in HELP])
def test_help(capsys, argv):
    assert run(capsys, argv) == (0, cmdline.USAGE, "")


@pytest.mark.parametrize("argv, flag, text", ASCII, ids=[ascii(" ".join(r[0])) for r in ASCII])
def test_numbers_are_ascii_digits(capsys, argv, flag, text):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"\nerror: argument {flag}: invalid int value: {text!r}\n")


@pytest.mark.parametrize("lam", ["4,\u0662", "4_0", " 4,2", "4,2 ", "\u0664", "4,,2", "4.0"])
def test_cycle_type_is_ascii_digits(capsys, lam):
    # each part of --lambda is [+-]?[0-9]+ too; int() read all but the last two
    code, out, err = run(capsys, ("moment", "exc", "--lambda", lam))
    assert (code, out, err) == (2, "", f"error: bad cycle type {lam!r}; expected e.g. 4,2,1\n")


@pytest.mark.parametrize("argv, message", [
    (("moment", "exc", "-d", "-1"), "-d must be >= 1"),
    (("moment", "exc", "--lambda", "+2,-1"), "cycle lengths must be positive"),
    (("verify", "exc", "--nmax", "-0"), "--nmax must be >= 1"),
], ids=["negative-order", "signed-cycle-lengths", "negative-zero-grid"])
def test_signed_numbers_reach_the_range_checks(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
